"""System descriptions and right-hand-side assembly.

A plant in normal form

    z' = f0(z, w) + f1(z, zeta, w) zeta
    zeta' = q(z, zeta, w) + u,    e = y = zeta

driven by an autonomous exosystem w' = s(w).  The regulated output is the
scalar zeta itself.

All vector fields follow one calling convention: they take sequences of
scalar-like components (floats, equal-length numpy rows, or jets) and return
sequences of components.  One implementation therefore serves plain
evaluation, batched integration over stacked rows, and jet propagation.

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
    "zero_dynamics_field",
    "as_array_rhs",
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


def _check_len(values, expected: int, what: str):
    values = tuple(values)
    if len(values) != expected:
        raise ConfigError(f"{what} returned {len(values)} components, expected {expected}")
    return values


def zero_dynamics_field(plant: PlantSpec, exo: ExosystemSpec) -> Callable:
    """Field (z, w) -> (f0(z, w), s(w)) on the stacked [z; w] components."""
    n, r = plant.n, exo.r

    def field(x):
        if len(x) != n + r:
            raise ConfigError(f"state has {len(x)} components, expected {n + r}")
        z, w = x[:n], x[n:]
        fz = _check_len(plant.f0(z, w), n, "f0")
        fw = _check_len(exo.s(w), r, "s")
        return fz + fw

    return field


def as_array_rhs(field: Callable) -> Callable:
    """Adapt a component field to an integrator right-hand side mapping an
    (m,) or (m, batch) array to an array of the same shape."""

    def rhs(x: np.ndarray) -> np.ndarray:
        comps = field(x)
        out = np.empty_like(x)
        for i, c in enumerate(comps):
            out[i] = c
        return out

    return rhs
