"""Internal-model construction: the tau chain, the saturated driver, and the
chain-structured vector field it drives.

tau stacks the repeated Lie derivatives of the steady-state feedforward
g = -q(z, 0, w) along the zero dynamics.  Its image over the attractor
estimate yields the saturation box; clamping the driver f to that box gives a
globally bounded, globally Lipschitz f_c whose certified constants C and L
feed the gain design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .dynsys import ExosystemSpec, PlantSpec, as_box, zero_dynamics_field, as_array_rhs
from .errors import CapabilityError, ConfigError, PreconditionError
from .integrators import rk4_fixed

__all__ = [
    "TauChain",
    "SaturatedDriver",
    "InternalModel",
    "build_tau",
    "saturate",
    "ImVerification",
    "verify_internal_model",
]


@dataclass(eq=False)
class TauChain:
    """Evaluator for tau(z, w) = col(tau_1, ..., tau_d).

    tau_1 = -q(z, 0, w) and each later entry is the Lie derivative of the
    previous one along the zero dynamics.  image_extent (the bounding box of
    tau over an attractor estimate) stays None until analysis.tau_image_box
    writes it; only perfbench/workloads.py reads it.
    """

    d: int
    plant: PlantSpec
    exo: ExosystemSpec
    image_extent: np.ndarray | None = None

    def __post_init__(self):
        n = self.plant.n

        def feedforward(x):
            z, w = x[:n], x[n:]
            return -self.plant.q(z, 0.0, w)

        object.__setattr__(self, "_g", feedforward)
        object.__setattr__(self, "_field", zero_dynamics_field(self.plant, self.exo))

    def chain(self, zw, count: int) -> np.ndarray:
        """Rows (g, L g, ..., L^(count-1) g) at zw; row i is d^i/dt^i of the
        feedforward along the flow.  zw has shape (n+r,) or (n+r, batch)."""
        return jets.lie_chain(self._g, self._field, count, zw)

    def __call__(self, zw) -> np.ndarray:
        return self.chain(zw, self.d)


def build_tau(plant: PlantSpec, exo: ExosystemSpec, d: int) -> TauChain:
    if d < 1:
        raise ConfigError("chain order d must be >= 1")
    return TauChain(d=d, plant=plant, exo=exo)


# saturation ------------------------------------------------------------------


def _grid(box: np.ndarray, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh])


_REFINE_ROUNDS = 2


def _scan_max(value_fn: Callable, box: np.ndarray) -> float:
    """Maximize value_fn over the box: a grid scan, then _REFINE_ROUNDS refinements."""
    d = box.shape[0]
    per_axis = 64 if d <= 3 else max(4, int(round(64 ** (3.0 / d))))
    best = -np.inf
    cur = box.copy()
    for _ in range(_REFINE_ROUNDS + 1):
        pts = _grid(cur, per_axis)
        vals = np.broadcast_to(np.asarray(value_fn(pts), dtype=float), (pts.shape[1],))
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
        spacing = (cur[:, 1] - cur[:, 0]) / max(per_axis - 1, 1)
        center = pts[:, i]
        cur = np.column_stack([
            np.maximum(center - spacing, box[:, 0]),
            np.minimum(center + spacing, box[:, 1]),
        ])
    return best


def _gradient_norms(f: Callable, pts: np.ndarray) -> np.ndarray:
    try:
        grad = jets.gradient(f, list(pts))
    except CapabilityError:
        # Driver not jet-evaluable: fall back to central differences.
        grad = np.empty_like(pts)
        for i in range(pts.shape[0]):
            step = 1e-6 * (1.0 + np.abs(pts[i]))
            hi = [pts[j] + (step if j == i else 0.0) for j in range(pts.shape[0])]
            lo = [pts[j] - (step if j == i else 0.0) for j in range(pts.shape[0])]
            grad[i] = (np.asarray(f(hi), dtype=float) - np.asarray(f(lo), dtype=float)) / (2.0 * step)
    return np.sqrt(np.sum(np.asarray(grad) ** 2, axis=0))


@dataclass(frozen=True, eq=False)
class SaturatedDriver:
    """Driver clamped to the saturation box: f_c(eta) = f(clamp(eta)).

    C bounds |f_c| globally and L is a global Lipschitz constant, both
    certified by grid maximization over s_box.
    """

    f: Callable
    s_box: np.ndarray
    C: float
    L: float

    def clamp(self, eta):
        return [np.minimum(np.maximum(c, self.s_box[i, 0]), self.s_box[i, 1])
                for i, c in enumerate(eta)]

    def __call__(self, eta):
        return self.f(self.clamp(eta))


def saturate(f: Callable, s_box, extent=None) -> SaturatedDriver:
    """Build the clamped driver and certify its constants.

    When extent (the bounding box of tau over the attractor estimate) is
    given, s_box must contain it with strictly positive margin on every
    side, so the clamp never bites on attractor data.  Experiments draw xi
    starts from s_box for the same reason.
    """
    s_box = as_box(s_box, None, "s_box")
    d = s_box.shape[0]
    if extent is not None:
        extent = as_box(extent, d, "extent")
        lo_ok = np.all(s_box[:, 0] < extent[:, 0])
        hi_ok = np.all(s_box[:, 1] > extent[:, 1])
        if not (lo_ok and hi_ok):
            raise ConfigError("saturation box must strictly contain the tau image")
    c_val = _scan_max(lambda pts: np.abs(np.asarray(f(list(pts)), dtype=float)), s_box)
    l_val = _scan_max(lambda pts: _gradient_norms(f, pts), s_box)
    return SaturatedDriver(f=f, s_box=s_box, C=float(c_val), L=float(l_val))


# internal model --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InternalModel:
    """Chain-of-integrators field eta' = (eta_2, ..., eta_d, -f_c(eta)) with
    scalar read-out eta_1."""

    d: int
    driver: SaturatedDriver

    def phi_c(self, eta):
        """Field value as d components; eta is a sequence of d components."""
        if len(eta) != self.d:
            raise ConfigError(f"eta has {len(eta)} components, expected {self.d}")
        return tuple(eta[1:]) + (-self.driver(eta),)


# verification ----------------------------------------------------------------


_VERIFY_HORIZON = 1.0
_VERIFY_DT = 1e-4
_VERIFY_TOL = 1e-5
_VERIFY_TRAJECTORIES = 10


@dataclass
class ImVerification:
    """Residuals of the two defining identities, measured numerically.

    residual_flow: max deviation of d/dt tau from Phi_c(tau) along sampled
    attractor trajectories (central differences in time).
    residual_output: max of |tau_1 + q(z, 0, w)| over the cloud.
    """

    residual_flow: float
    residual_output: float

    @property
    def passed(self) -> bool:
        return self.residual_flow < _VERIFY_TOL and self.residual_output < _VERIFY_TOL


def verify_internal_model(im: InternalModel, tau: TauChain, cloud) -> ImVerification:
    """Check the internal-model identities on attractor samples.

    cloud is an (n+r, N) array of attractor points (or an object exposing one
    as .points).  _VERIFY_TRAJECTORIES trajectories start from a spread of
    cloud points and run over _VERIFY_HORIZON at step _VERIFY_DT; both
    residuals must stay below _VERIFY_TOL.
    """
    points = np.asarray(getattr(cloud, "points", cloud), dtype=float)
    if points.ndim != 2 or points.size == 0:
        raise PreconditionError("attractor estimate is empty")
    n_traj = min(_VERIFY_TRAJECTORIES, points.shape[1])
    idx = np.linspace(0, points.shape[1] - 1, n_traj).astype(int)
    x0 = points[:, idx]

    rhs = as_array_rhs(zero_dynamics_field(tau.plant, tau.exo))
    traj = rk4_fixed(rhs, x0, (0.0, _VERIFY_HORIZON), h=_VERIFY_DT)
    # tau over all states at once: (steps+1, n+r, n_traj) -> (n+r, ...)
    flat = np.moveaxis(traj.states, 0, -1).reshape(points.shape[0], -1)
    tau_vals = tau(flat).reshape(im.d, n_traj, traj.states.shape[0])

    dtau = (tau_vals[:, :, 2:] - tau_vals[:, :, :-2]) / (2.0 * traj.meta["h"])
    mid = tau_vals[:, :, 1:-1]
    phi_vals = as_array_rhs(im.phi_c)(mid.reshape(im.d, -1)).reshape(mid.shape)
    residual_flow = float(np.max(np.abs(dtau - phi_vals)))

    tau_cloud = tau(points)
    q_vals = np.broadcast_to(
        np.asarray(tau.plant.q(points[: tau.plant.n], 0.0, points[tau.plant.n:]), dtype=float),
        (points.shape[1],))
    residual_output = float(np.max(np.abs(tau_cloud[0] + q_vals)))
    return ImVerification(residual_flow=residual_flow,
                          residual_output=residual_output)
