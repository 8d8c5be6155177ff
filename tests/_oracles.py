"""Independent oracles and reference implementations shared across test
modules.

The reference implementations are checks that no pipeline stage runs: the
clustered pole error (check 02), cloud forward invariance, and the closed
loop in the shifted eta coordinates (check 09).
"""

import math

import numpy as np

from nimreg.analysis import _nearest
from nimreg.dynsys import as_array_rhs, zero_dynamics_field
from nimreg.errors import BoundednessError
from nimreg.integrators import rk4_fixed


def fd_along_flow(g, field, count, x0, window=0.08, n_pts=33, deg=10):
    """Time derivatives of g along the flow of field at x0, no jets involved:
    integrate to a centered grid of times and fit a Vandermonde polynomial."""
    rhs = as_array_rhs(field)
    ts = np.linspace(-window, window, n_pts)
    vals = np.empty(n_pts)
    x0 = np.asarray(x0, dtype=float)
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
    rhs = as_array_rhs(zero_dynamics_field(plant, exo))
    endpoints = rk4_fixed(rhs, pts[:, idx], (0.0, _INVARIANCE_T)).final
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

    Component field; wrap with as_array_rhs to integrate."""
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
