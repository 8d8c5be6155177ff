"""Independent oracles and reference implementations shared across test
modules.

The reference implementations are checks that no pipeline stage runs: the
clustered pole error (check 02), cloud forward invariance, the closed loop
in the shifted eta coordinates (check 09), and a straight-line RK4 over
component fields, evaluated the allocating way, against which the bound
fields and the in-place integrator must agree bit for bit.
"""

import math

import numpy as np

from nimreg.analysis import _nearest
from nimreg.dynsys import component_rhs, zero_dynamics_rhs
from nimreg.errors import BoundednessError
from nimreg.integrators import rk4_fixed


def fd_along_flow(g, field, count, x0, window=0.08, n_pts=33, deg=10):
    """Time derivatives of g along the flow of field at x0, no jets involved:
    integrate to a centered grid of times and fit a Vandermonde polynomial."""
    x0 = np.asarray(x0, dtype=float)
    rhs = component_rhs(field, x0.shape[0])
    ts = np.linspace(-window, window, n_pts)
    vals = np.empty(n_pts)
    for i, t in enumerate(ts):
        if abs(t) < 1e-15:
            state = x0
        elif t > 0:
            state = rk4_fixed(rhs, x0, (0.0, t), h=t / 400).final
        else:
            state = rk4_fixed(lambda x: -rhs(x), x0, (0.0, -t), h=-t / 400).final
        vals[i] = float(g(list(state)))
    V = np.vander(ts, deg + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(V, vals, rcond=None)
    return np.array([math.factorial(k) * coef[k] for k in range(count)])


def tau_seed(bench):
    """First chain element: g = -q(z, 0, w) as a plain-float function."""
    n = bench.plant.n

    def g(x):
        return -bench.plant.q(x[:n], 0.0, x[n:])

    return g


def matched_pole_error(G0, poles) -> float:
    """Worst distance between each requested pole and the mean of its matched
    eigenvalue cluster.

    For repeated poles the individual eigenvalues of the companion matrix are
    perturbed like eps^(1/mult), but their mean is backward stable, so the
    comparison is done per multiplicity cluster.
    """
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    G0 = np.asarray(G0, dtype=float)
    A = np.eye(G0.size, k=1)
    A[:, 0] -= G0
    eig = np.linalg.eigvals(A)
    clusters: list[list] = []
    for p in sorted(poles, key=lambda v: (v.real, v.imag)):
        if clusters and abs(p - clusters[-1][0]) < 1e-9:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    avail = list(eig)
    worst = 0.0
    for members in clusters:
        value = members[0]
        picked = []
        for _ in members:
            i = int(np.argmin([abs(a - value) for a in avail]))
            picked.append(avail.pop(i))
        worst = max(worst, abs(np.mean(picked) - value))
    return float(worst)


_INVARIANCE_T = 1.0
_INVARIANCE_TOL = 1e-3
_INVARIANCE_POINTS = 200


def check_forward_invariance(est, plant, exo) -> float:
    """Flow a spread of _INVARIANCE_POINTS cloud points for _INVARIANCE_T and
    return the largest nearest-neighbor distance back to the cloud; raise
    BoundednessError when it reaches _INVARIANCE_TOL."""
    pts = est.points
    idx = np.linspace(0, pts.shape[1] - 1,
                      min(_INVARIANCE_POINTS, pts.shape[1])).astype(int)
    endpoints = rk4_fixed(zero_dynamics_rhs(plant, exo), pts[:, idx],
                          (0.0, _INVARIANCE_T)).final
    worst = float(np.max(_nearest(endpoints, pts)))
    if worst >= _INVARIANCE_TOL:
        raise BoundednessError(
            f"cloud is not forward-invariant at tolerance {_INVARIANCE_TOL:g} "
            f"(worst return distance {worst:.3e})",
            evidence={"worst": worst, "tol": _INVARIANCE_TOL})
    return worst


def closed_loop_field_eta(plant, exo, cc):
    """Closed loop in shifted coordinates [z, e, w, eta], eta = xi - G e:

        z' = f0 + f1 e,  e' = q + eta_1 - k_bar e,  w' = s,
        eta' = Phi_c(eta + G e) - G (eta_1 + G_1 e) - G q(z, e, w).

    Component field; bind with component_rhs to integrate."""
    n, r = plant.n, exo.r
    G = [float(g) for g in np.asarray(cc.gd.G, dtype=float).ravel()]
    k_bar = float(cc.k_bar)
    im = cc.im

    def field(x):
        z, e, w, eta = x[:n], x[n], x[n + 1:n + 1 + r], x[n + 1 + r:]
        fz = plant.f0(z, w)
        f1v = plant.f1(z, e, w)
        zdot = tuple(a + b * e for a, b in zip(fz, f1v))
        qv = plant.q(z, e, w)
        edot = qv + eta[0] - k_bar * e
        xi = [ec + g * e for ec, g in zip(eta, G)]
        gamma_xi = xi[0]
        phi = im.phi_c(xi)
        etadot = tuple(p - g * (gamma_xi + qv) for p, g in zip(phi, G))
        return zdot + (edot,) + tuple(exo.s(w)) + etadot

    return field


# straight-line RK4 over component fields ---------------------------------------


def array_rhs(field):
    """A component field as a plain array callable that allocates its
    output and copies each component into its row."""

    def rhs(x):
        out = np.empty_like(x)
        for i, c in enumerate(field(x)):
            out[i] = c
        return out

    return rhs


def rk4_reference(field, x0, t_span, n_steps):
    """The final state of n_steps classical RK4 steps over t_span, one
    allocating expression per stage."""
    rhs = array_rhs(field)
    h = (t_span[1] - t_span[0]) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    x = np.array(x0, dtype=float)
    for _ in range(n_steps):
        k1 = rhs(x)
        k2 = rhs(x + half * k1)
        k3 = rhs(x + half * k2)
        k4 = rhs(x + h * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def closed_loop_field(plant, exo, cc):
    """Component field of the closed loop in plain coordinates [z, e, w, xi]
    (sim's bound field), as tuples of components:

        z' = f0 + f1 e,  e' = q + xi_1 + v,  w' = s,  xi' = Phi_c(xi) + G v,

    with v = -k e."""
    n, r = plant.n, exo.r
    G = [float(g) for g in np.asarray(cc.gd.G, dtype=float).ravel()]
    k = float(cc.k)
    im = cc.im

    def field(x):
        z, e, w, xi = x[:n], x[n], x[n + 1:n + 1 + r], x[n + 1 + r:]
        v = -k * e
        zdot = tuple(a + b * e for a, b in zip(plant.f0(z, w), plant.f1(z, e, w)))
        edot = plant.q(z, e, w) + xi[0] + v
        xidot = tuple(p + g * v for p, g in zip(im.phi_c(xi), G))
        return zdot + (edot,) + tuple(exo.s(w)) + xidot

    return field


def cascade_field(plant, exo, im, G):
    """Component field of the observer cascade on [z, w, xi] (sim's bound
    field), as tuples of components:

        z' = f0,  w' = s,  xi' = Phi_c(xi) + G (-q(z, 0, w) - xi_1)."""
    n, r = plant.n, exo.r
    G = [float(g) for g in np.asarray(G, dtype=float).ravel()]

    def field(x):
        z, w, xi = x[:n], x[n:n + r], x[n + r:]
        innov = -plant.q(z, 0.0, w) - xi[0]
        return tuple(plant.f0(z, w)) + tuple(exo.s(w)) + tuple(
            p + g * innov for p, g in zip(im.phi_c(xi), G))

    return field
