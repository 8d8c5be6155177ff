"""Observer gain design for the internal-model cascade.

The base gain G0 places the poles of A - G0*Gamma; the deployed gain is the
high-gain scaling G_i = kappa^(i+1) * G0_i.  A Lyapunov certificate P for the
placed matrix gives the analytic lower bound kappa > 2 L |P| under which the
saturated driver cannot destroy contraction; find_kappa_star searches upward
from that bound until the tracking error demonstrably decays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitError, IntegrationError, PreconditionError, SearchError

__all__ = [
    "place_poles",
    "solve_lyapunov",
    "build_gain",
    "kappa_lower_bound",
    "GainDesign",
    "design_gains",
    "KappaSearch",
    "find_kappa_star",
]


def _companion(G0: np.ndarray) -> np.ndarray:
    d = G0.size
    A = np.eye(d, k=1)
    A[:, 0] -= G0
    return A


def place_poles(d: int, poles=None) -> np.ndarray:
    """Gain column G0 so that A - G0*Gamma has the requested spectrum.

    poles defaults to d copies of -1.  Complex poles must come in conjugate
    pairs and every pole must lie strictly in the left half plane.
    """
    if d < 1:
        raise ConfigError(f"need d >= 1, got {d}")
    if poles is None:
        poles = [-1.0] * d
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    if poles.size != d:
        raise ConfigError(f"got {poles.size} poles for dimension {d}")
    if np.any(poles.real >= 0.0):
        raise ConfigError("all poles must have negative real part")
    if not np.allclose(np.sort_complex(poles), np.sort_complex(poles.conj()),
                       rtol=1e-12, atol=1e-12):
        raise ConfigError("complex poles must be closed under conjugation")
    coeffs = np.poly(poles)
    if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs.real))):
        raise ConfigError("pole set produced non-real polynomial coefficients")
    G0 = coeffs.real[1:].astype(float)
    # Compare characteristic polynomials, not eigenvalues: near-coincident
    # poles make the eigenvalues of the placed matrix sensitive (a valid
    # d = 8 set misses by 1e-6), while the polynomial they define matches
    # the requested one to rounding for any pole set.
    eig = np.linalg.eigvals(_companion(G0))
    err = float(np.max(np.abs(np.poly(eig) - coeffs)) / np.max(np.abs(coeffs)))
    if err > 1e-10:
        raise PreconditionError(
            "pole placement postcondition failed: characteristic polynomial "
            f"backward error {err:.3e}")
    return G0


def solve_lyapunov(A: np.ndarray) -> np.ndarray:
    """Solve P A + A^T P = -I for symmetric positive definite P.

    Dense solve over the d(d+1)/2 symmetric unknowns; fine for the small d
    used here.  Non-Hurwitz input surfaces as a singular system or an
    indefinite P, both reported as precondition failures.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d):
        raise ConfigError("A must be square")
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    index = {p: q for q, p in enumerate(pairs)}
    M = np.zeros((len(pairs), len(pairs)))
    b = np.zeros(len(pairs))
    for row, (k, l) in enumerate(pairs):
        b[row] = -1.0 if k == l else 0.0
        for m in range(d):
            M[row, index[(min(k, m), max(k, m))]] += A[m, l]
            M[row, index[(min(m, l), max(m, l))]] += A[m, k]
    try:
        sol = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(f"Lyapunov system is singular: {exc}") from exc
    P = np.zeros((d, d))
    for q, (i, j) in enumerate(pairs):
        P[i, j] = P[j, i] = sol[q]
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("Lyapunov certificate is not positive definite; "
                                "the placed matrix is not Hurwitz") from exc
    return P


def build_gain(G0: np.ndarray, kappa: float) -> np.ndarray:
    """High-gain scaling G_i = kappa^(i+1) * G0_i."""
    if not kappa > 1.0:
        raise ConfigError(f"kappa must exceed 1, got {kappa:g}")
    G0 = np.asarray(G0, dtype=float)
    scale = kappa ** np.arange(1, G0.size + 1)
    return scale * G0


def kappa_lower_bound(lipschitz: float, P: np.ndarray) -> float:
    """Analytic contraction threshold 2 L |P| (spectral norm)."""
    return 2.0 * float(lipschitz) * float(np.linalg.norm(P, 2))


@dataclass(frozen=True, eq=False)
class GainDesign:
    d: int
    poles: tuple
    G0: np.ndarray
    kappa: float
    G: np.ndarray
    P: np.ndarray
    kappa_lb: float


def _certificate(d: int, poles):
    """(poles, G0, P): the poles (d copies of -1 when None), the gain G0
    placing them and the Lyapunov certificate P of the placed matrix."""
    poles = [-1.0] * d if poles is None else poles
    G0 = place_poles(d, poles)
    return poles, G0, solve_lyapunov(_companion(G0))


def design_gains(d: int, kappa: float, lipschitz: float = 0.0,
                 poles=None) -> GainDesign:
    poles, G0, P = _certificate(d, poles)
    return _design(poles, G0, P, kappa, kappa_lower_bound(lipschitz, P))


def _design(poles, G0, P, kappa: float, kappa_lb: float) -> GainDesign:
    """The GainDesign at kappa from a placed G0 and its certificate P."""
    return GainDesign(d=G0.size, poles=tuple(complex(p) for p in np.atleast_1d(poles)),
                      G0=G0, kappa=float(kappa), G=build_gain(G0, kappa), P=P,
                      kappa_lb=kappa_lb)


@dataclass(frozen=True)
class KappaSearch:
    kappa: float
    rate: float
    kappa_lb: float
    history: list
    design: GainDesign


_ALPHA_MIN = 0.3
_KAPPA_MAX = 1024.0


def find_kappa_star(syn, *, poles=None) -> KappaSearch:
    """Double kappa from the analytic bound, up to _KAPPA_MAX, until the
    median tracking error |xi - tau(z, w)| of syn's observer cascade decays
    at least at rate _ALPHA_MIN (analysis.tracking_error_decay).

    The certified bound is where the search starts; the returned kappa is the
    first empirically passing value, which may equal the bound.  The probe
    draws xi starts from the driver's saturation box syn.im.driver.s_box.
    """
    from .analysis import tracking_error_decay

    poles, G0, P = _certificate(syn.im.d, poles)
    bound = kappa_lower_bound(syn.im.driver.L, P)

    kappa = max(1.0 + 1e-6, bound)
    history = []
    while kappa <= _KAPPA_MAX:
        alpha = None
        try:
            alpha = tracking_error_decay(syn, build_gain(G0, kappa)).alpha
        except (FitError, IntegrationError):
            pass
        history.append((kappa, alpha))
        if alpha is not None and alpha >= _ALPHA_MIN:
            return KappaSearch(kappa=kappa, rate=alpha, kappa_lb=bound,
                               history=history,
                               design=_design(poles, G0, P, kappa, bound))
        kappa *= 2.0
    raise SearchError(
        f"no kappa <= {_KAPPA_MAX:g} reached decay rate {_ALPHA_MIN:g} "
        f"(analytic bound was {bound:g})",
        history=history)
