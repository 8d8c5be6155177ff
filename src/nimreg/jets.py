"""Truncated time-Taylor jets and Lie-derivative chains along a flow.

The derivative-chain construction needs repeated time derivatives of scalar
quantities along a trajectory of an autonomous field.  A :class:`Jet` holds
the leading Taylor coefficients of one scalar signal about t = 0; propagating
the state jets through the field once per order recovers the classical
recursive Lie-derivative computation with plain floating point arithmetic,
no symbolic algebra involved.

Coefficients may be floats or broadcast-compatible numpy arrays, so a single
jet evaluation can carry a whole batch of points.

Jets support +, -, * and nonnegative integer powers only.  Anything else in
a plant (division, sin, exp, ...) makes tau raise CapabilityError; in a
driver, its Lipschitz constant comes from central differences instead.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CapabilityError, ConfigError

__all__ = [
    "Jet",
    "lie_chain",
    "gradient",
]


def _zero_like(value):
    if isinstance(value, np.ndarray):
        return np.zeros_like(value)
    return 0.0


class Jet:
    """Taylor coefficients of a scalar signal t -> u(t) about t = 0.

    ``coeffs[k]`` is the k-th Taylor coefficient, i.e. the k-th time
    derivative divided by k!.
    """

    __slots__ = ("coeffs",)
    # Refuse silent numpy coercion; unsupported ufuncs then raise TypeError,
    # which lie_chain converts into a CapabilityError.
    __array_ufunc__ = None

    def __init__(self, coeffs: Sequence):
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("a jet needs at least the order-0 coefficient")

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        return cls([value] + [_zero_like(value) for _ in range(order)])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet([a + b for a, b in zip(self.coeffs, other.coeffs)])
        c = list(self.coeffs)
        c[0] = c[0] + other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet([a - b for a, b in zip(self.coeffs, other.coeffs)])
        c = list(self.coeffs)
        c[0] = c[0] - other
        return Jet(c)

    def __rsub__(self, other):
        c = [-a for a in self.coeffs]
        c[0] = other + c[0]
        return Jet(c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            n = len(self.coeffs)
            a, b = self.coeffs, other.coeffs
            out = []
            for k in range(n):
                acc = a[0] * b[k]
                for i in range(1, k + 1):
                    acc = acc + a[i] * b[k - i]
                out.append(acc)
            return Jet(out)
        return Jet([a * other for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise CapabilityError("jets support nonnegative integer powers only")
        if n == 0:
            return Jet.constant(1.0, self.order)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __repr__(self):
        return f"Jet({self.coeffs!r})"


def _coeff(value, k: int):
    """k-th Taylor coefficient of a field component that may be a Jet or a
    plain constant."""
    if isinstance(value, Jet):
        return value.coeffs[k]
    return value if k == 0 else _zero_like(value)


def lie_chain(g, field, count: int, x0) -> np.ndarray:
    """Evaluate (g, L_F g, ..., L_F^(count-1) g) at x0 along an autonomous field.

    ``field`` maps a sequence of state components to the components of the
    state derivative and ``g`` maps the same to a scalar; both must accept
    Jet components.  ``x0`` has shape (m,) for a single point or (m, batch)
    for a batch, and the result has shape (count,) or (count, batch).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    order = count - 1
    state = [Jet.constant(x0[i], order) for i in range(x0.shape[0])]
    try:
        for k in range(order):
            rates = tuple(field(state))
            if len(rates) != len(state):
                raise ConfigError(f"field returned {len(rates)} components, "
                                  f"expected {len(state)}")
            for i, r in enumerate(rates):
                state[i].coeffs[k + 1] = _coeff(r, k) / (k + 1)
        gj = g(state)
    except (TypeError, AttributeError) as exc:
        raise CapabilityError(
            f"field or output is not jet-evaluable to order {order}: {exc}"
        ) from exc
    rows = [math.factorial(k) * _coeff(gj, k) for k in range(count)]
    # constant g yields scalar rows; the batch axis still has to survive
    shape = np.broadcast_shapes(x0.shape[1:], *[np.shape(r) for r in rows])
    out = np.empty((count,) + shape)
    for k, r in enumerate(rows):
        out[k] = r
    return out


def gradient(fn, point) -> np.ndarray:
    """Gradient of a scalar function of several components: row i is the
    first Lie derivative of fn along the constant unit field e_i.

    ``point`` is a sequence of m scalar-like components (floats or equal-length
    arrays); the result has shape (m,) or (m, batch).
    """
    x0 = np.broadcast_arrays(*point)
    m = len(x0)
    units = [tuple(float(j == i) for j in range(m)) for i in range(m)]
    return np.stack([lie_chain(fn, lambda x, e=e: e, 2, x0)[1] for e in units])
