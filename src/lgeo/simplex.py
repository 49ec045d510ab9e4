"""Coordinate systems on the open unit simplex and the transport cost.

The open unit simplex of dimension ``n`` is the set of strictly positive
probability vectors ``p`` with ``sum(p) == 1``.  Besides the Euclidean
coordinates ``p`` we use the exponential (primal) coordinates

    theta_i = log(p_i / p_n),   i = 1, ..., n-1,

with the convention ``theta_n = 0``.  The inverse map is
``p_i = exp(theta_i - psi(theta))`` where ``psi`` is the log-partition
function ``psi(x) = log(1 + sum_i exp(x_i))``.  The same ``psi`` defines
the transport cost ``c(theta, phi) = psi(theta - phi)`` used throughout
the package.

All exp/log aggregations are max-shifted so that coordinates of order
+-50, which occur along geodesics, do not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SimplexPoint",
    "PrimalCoord",
    "DualCoord",
    "CostValue",
    "psi",
    "softmax_with_tail",
    "to_primal",
    "from_primal",
    "cost",
]

# Constructor policy: entries at or below ENTRY_FLOOR are treated as boundary
# points; sums off by more than SUM_TOL are rejected instead of renormalized.
ENTRY_FLOOR = 1e-300
SUM_TOL = 1e-9


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


@dataclass(frozen=True)
class SimplexPoint:
    """A strictly positive probability vector (a point of the open simplex)."""

    p: np.ndarray

    def __init__(self, p):
        arr = np.asarray(p, dtype=float).copy()
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a simplex point needs at least 2 coordinates")
        if not np.all(np.isfinite(arr)):
            raise ValueError("simplex point entries must be finite")
        if np.any(arr <= ENTRY_FLOOR):
            raise ValueError("simplex point entries must be strictly positive")
        total = arr.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"coordinates sum to {total!r}, not 1")
        arr /= total
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @property
    def n(self) -> int:
        return self.p.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.p, dtype=dtype)

    def __len__(self) -> int:
        return self.p.size

    def __getitem__(self, i):
        return self.p[i]


@dataclass(frozen=True)
class PrimalCoord:
    """Exponential coordinates: log-odds against the last component."""

    theta: np.ndarray

    def __init__(self, theta):
        arr = _as_vector(theta, "theta").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "theta", arr)

    @property
    def n(self) -> int:
        """Dimension of the underlying simplex (one more than len(theta))."""
        return self.theta.size + 1

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.theta, dtype=dtype)


@dataclass(frozen=True)
class DualCoord:
    """Dual exponential coordinates, tagged with the generator that made them."""

    phi: np.ndarray
    generator: object = field(default=None, compare=False)

    def __init__(self, phi, generator=None):
        arr = _as_vector(phi, "phi").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "phi", arr)
        object.__setattr__(self, "generator", generator)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.phi, dtype=dtype)


@dataclass(frozen=True)
class CostValue:
    """Transport cost in nats, together with its normalized variant.

    ``nats`` is ``psi(theta - phi)``.  ``normalized`` subtracts the affine
    part that is irrelevant for optimal transport; it is non-negative and
    vanishes exactly when ``theta == phi``.
    """

    nats: float
    normalized: float

    def __float__(self) -> float:
        return self.nats


def coord_array(x) -> np.ndarray:
    """Coerce a PrimalCoord / DualCoord / array-like to a plain 1-d array."""
    if isinstance(x, PrimalCoord):
        return x.theta
    if isinstance(x, DualCoord):
        return x.phi
    return _as_vector(x, "coordinate")


def coord_rows(x) -> np.ndarray:
    """Like :func:`coord_array`, but also accepts an (N, n-1) array of rows."""
    if isinstance(x, (PrimalCoord, DualCoord)):
        return coord_array(x)
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        return _as_vector(arr, "coordinate")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinate rows must have finite entries")
    return arr


def point_array(x) -> np.ndarray:
    """Coerce a SimplexPoint or array-like to a plain 1-d probability array."""
    if isinstance(x, SimplexPoint):
        return x.p
    return SimplexPoint(x).p


def psi(x) -> float:
    """Log-partition ``log(1 + sum_i exp(x_i))``, computed with a max shift.

    ``x`` lives in R^(n-1); the implicit n-th entry is 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = max(x.max(initial=0.0), 0.0)
    return float(m + np.log(np.exp(-m) + np.exp(x - m).sum()))


def psi_many(X: np.ndarray) -> np.ndarray:
    """Row-wise ``psi`` for an (N, n-1) array."""
    X = np.asarray(X, dtype=float)
    m = np.maximum(X.max(axis=-1), 0.0)
    return m + np.log(np.exp(-m) + np.exp(X - m[..., None]).sum(axis=-1))


def softmax_with_tail(x) -> np.ndarray:
    """Full probability vector of the coordinate vector ``x`` in R^(n-1).

    Returns the n-vector proportional to ``(exp(x_1), ..., exp(x_{n-1}), 1)``,
    normalized to sum to one.  This is the inverse exponential-coordinate map
    before wrapping in :class:`SimplexPoint`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.concatenate([x, [0.0]])
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


def to_primal(p) -> PrimalCoord:
    """Exponential coordinates ``theta_i = log(p_i / p_n)`` of a point."""
    arr = point_array(p)
    logp = np.log(arr)
    return PrimalCoord(logp[:-1] - logp[-1])


def to_primal_many(P: np.ndarray) -> np.ndarray:
    """Row-wise exponential coordinates of an (N, n) array of points."""
    L = np.log(np.asarray(P, dtype=float))
    return L[:, :-1] - L[:, -1:]


def from_primal_many(Theta: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_primal_many` over the last axis of a (..., n-1)
    array, max-shifted; a 1-d ``Theta`` gives one point."""
    Theta = np.asarray(Theta, dtype=float)
    Z = np.concatenate([Theta, np.zeros(Theta.shape[:-1] + (1,))], axis=-1)
    Z = Z - Z.max(axis=-1, keepdims=True)
    W = np.exp(Z)
    return W / W.sum(axis=-1, keepdims=True)


def from_primal(theta) -> SimplexPoint:
    """Inverse of :func:`to_primal`; overflow-safe for large coordinates."""
    x = coord_array(theta)
    return SimplexPoint(softmax_with_tail(x))


def cost(theta, phi) -> CostValue:
    """Transport cost ``c(theta, phi) = psi(theta - phi)``.

    The ``normalized`` field is the equivalent cost with the affine part
    removed, ``psi(x) - log(n) - sum(x)/n``; by Jensen's inequality it is
    non-negative and zero exactly at ``theta == phi``.
    """
    t = coord_array(theta)
    f = coord_array(phi)
    if t.shape != f.shape:
        raise ValueError(f"dimension mismatch: {t.shape} vs {f.shape}")
    x = t - f
    n = x.size + 1
    raw = psi(x)
    return CostValue(nats=float(raw), normalized=float(raw - np.log(n) - x.sum() / n))
