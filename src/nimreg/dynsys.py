"""System descriptions and right-hand-side assembly.

A plant in normal form

    z' = f0(z, w) + f1(z, zeta, w) zeta
    zeta' = q(z, zeta, w) + u,    e = y = zeta

driven by an autonomous exosystem w' = s(w).  The regulated output is the
scalar zeta itself.

Vector fields come in two forms.  A component field takes a sequence of
scalar-like components (floats, equal-length numpy rows, or jets) and
returns a sequence of components, so one implementation serves plain
evaluation and jet propagation.  A Field is the bound form the integrators
run: bind(x, out) takes the rows of a state buffer x and of a rate buffer
out once, checks the shapes once, and returns a call that evaluates the
field at x's current values and writes the rates into out's rows.
component_rhs binds a component field this way; sim binds the closed loop
and the observer cascade directly.

Sample regions are axis-aligned boxes stored as (dim, 2) arrays of
[lower, upper] rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = [
    "ExosystemSpec",
    "PlantSpec",
    "ScenarioSets",
    "as_box",
    "inflate_box",
    "sample_box",
    "Field",
    "component_rhs",
    "zero_dynamics_field",
    "zero_dynamics_rhs",
]


# boxes ----------------------------------------------------------------------


def as_box(bounds, dim: int | None = None, name: str = "box") -> np.ndarray:
    """Validate and normalize box bounds to a float array of shape (dim, 2)."""
    box = np.atleast_2d(np.asarray(bounds, dtype=float))
    if box.ndim != 2 or box.shape[1] != 2:
        raise ConfigError(f"{name} must have shape (dim, 2), got {box.shape}")
    if dim is not None and box.shape[0] != dim:
        raise ConfigError(f"{name} must have {dim} rows, got {box.shape[0]}")
    if not np.all(np.isfinite(box)):
        raise ConfigError(f"{name} has non-finite bounds")
    if np.any(box[:, 0] > box[:, 1]):
        raise ConfigError(f"{name} has lower > upper")
    return box


def inflate_box(box: np.ndarray, factor: float, floor: float = 0.0) -> np.ndarray:
    """Grow each half-width by the given factor, with an absolute floor so a
    degenerate (zero-width) axis still gets positive extent."""
    box = as_box(box)
    center = 0.5 * (box[:, 0] + box[:, 1])
    half = 0.5 * (box[:, 1] - box[:, 0])
    half = np.maximum(half * (1.0 + factor), floor)
    return np.column_stack([center - half, center + half])


def sample_box(box: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from a box, returned as (dim, count)."""
    box = as_box(box)
    u = rng.random((box.shape[0], count))
    return box[:, :1] + u * (box[:, 1:] - box[:, :1])


# value types ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExosystemSpec:
    """Autonomous signal generator w' = s(w) with a compact region of
    admissible initial conditions."""

    r: int
    s: Callable
    w_box: np.ndarray

    def __post_init__(self):
        if self.r < 1:
            raise ConfigError("exosystem dimension must be >= 1")
        object.__setattr__(self, "w_box", as_box(self.w_box, self.r, "w_box"))


@dataclass(frozen=True, eq=False)
class PlantSpec:
    """Normal-form plant data (f0, f1, q) with z-dimension n."""

    n: int
    f0: Callable
    f1: Callable
    q: Callable

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("plant z-dimension must be >= 1")


@dataclass(frozen=True, eq=False)
class ScenarioSets:
    """Compact initial-condition regions for verification experiments.

    The xi region is not one of them: experiments draw xi starts from the
    saturation box of the internal model's driver, which contains the tau
    image by construction (internal_model.saturate).
    """

    z_box: np.ndarray
    e_interval: np.ndarray
    n_samples: int = 50
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "z_box", as_box(self.z_box, None, "z_box"))
        e = as_box(np.reshape(np.asarray(self.e_interval, dtype=float), (1, 2)),
                   1, "e_interval")
        object.__setattr__(self, "e_interval", e)
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def sample(self, exo: ExosystemSpec, rng: np.random.Generator, count: int,
               w0_sampler: Callable | None = None, xi_box=None):
        """Draw count initial states (z0, w0, xi0, e0), in that order.

        w0 comes from w0_sampler when given, else uniformly from exo.w_box;
        xi0 is None without an xi_box.  The order is fixed so that a caller
        that discards xi0 or e0 gets the same z0 and w0 as one that uses them."""
        z0 = sample_box(self.z_box, count, rng)
        if w0_sampler is not None:
            w0 = np.asarray(w0_sampler(count, rng), dtype=float)
        else:
            w0 = sample_box(exo.w_box, count, rng)
        xi0 = sample_box(xi_box, count, rng) if xi_box is not None else None
        e0 = sample_box(self.e_interval, count, rng)[0]
        return z0, w0, xi0, e0


# right-hand sides -----------------------------------------------------------
#
# State layouts, by convention:
#   zero dynamics        x = [z (n), w (r)]
# Closed-loop layouts (appending the controller state) live in sim.


@dataclass(frozen=True, eq=False)
class Field:
    """A right-hand side in bound form.

    bind(x, out) returns a call that evaluates the field at the state buffer
    x, an (m,) or (m, batch) array, and writes the rates into out, an array
    of the same shape.  The call reads x's values when it runs, so an
    integrator binds its stage buffers once per run and calls on every
    stage.  Calling the Field itself evaluates it once into a new array.
    """

    bind: Callable

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        self.bind(x, out)()
        return out


def _row_views(x: np.ndarray, m: int, what: str) -> list:
    """The m rows of a state or rate buffer as views: (batch,) rows of an
    (m, batch) buffer, 0-d arrays of an (m,) one."""
    if len(x) != m:
        raise ConfigError(f"{what} state has {len(x)} components, expected {m}")
    return [x[i, ...] for i in range(m)]


def _check_len(values, expected: int, what: str):
    values = tuple(values)
    if len(values) != expected:
        raise ConfigError(f"{what} returned {len(values)} components, expected {expected}")
    return values


def component_rhs(field: Callable, m: int, what: str = "field") -> Field:
    """Bind a component field of m components for integration.  At bind
    time the field is evaluated once, at the buffer's values, to check that
    it returns m components; each call then copies every returned component
    into its row of out."""

    def bind(x, out):
        xs, outs = _row_views(x, m, what), _row_views(out, m, what)
        _check_len(field(xs), m, what)

        def call():
            for o, c in zip(outs, field(xs)):
                o[...] = c

        return call

    return Field(bind)


def zero_dynamics_field(plant: PlantSpec, exo: ExosystemSpec) -> Callable:
    """Component field (z, w) -> (f0(z, w), s(w)) on the stacked [z; w]
    components.  It checks nothing per call: jets.lie_chain and
    component_rhs check the number of components it returns."""
    n, f0, s = plant.n, plant.f0, exo.s

    def field(x):
        z, w = x[:n], x[n:]
        return (*f0(z, w), *s(w))

    return field


def zero_dynamics_rhs(plant: PlantSpec, exo: ExosystemSpec) -> Field:
    """The zero dynamics, bound for integration on [z; w] states."""
    return component_rhs(zero_dynamics_field(plant, exo), plant.n + exo.r,
                         "zero dynamics")
