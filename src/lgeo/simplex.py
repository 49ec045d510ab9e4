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

Inputs are checked once, at the public boundary, by two functions: every
public entry point passes its points through :func:`point_rows` or its
coordinates through :func:`coord_rows`, each with the generator, if any, in
exactly one call.  Library code never calls a public function that checks
its input through these two: it calls the unchecked kernel behind it.
:func:`point_rows` validates points of one common dimension as one array and
returns their plain rows: it tests the stacked array with one whole-array
reduction (the least entry) and the few row sums as floats, and does per-row
work only for a :class:`SimplexPoint` argument, whose stored row it keeps.
:func:`coord_rows` stacks coordinates of one common shape and tests them for
finite entries in one reduction.  Both then check the dimension against the
generator's ``dim``.  So a single-point library call spends a handful of
numpy calls on its checks; failing input goes one argument at a time, and
the error of a point is that of :class:`SimplexPoint`.
The kernels below that boundary
(:func:`psi_many`, :func:`from_primal_many`, :func:`to_primal_many` and the
log-sum ``_log_tilt``) take plain float arrays of shape ``(..., k)``, reduce
over the last axis and check nothing; :func:`softmax_with_tail` is their
1-d case, and the public :func:`psi` checks its one coordinate first.
``_softmax_psi`` gives the softmax with its tail and psi of the same rows
from one shifted exp.  Every module computes the c-concave potential
f = phi + psi through ``_f_rows``, which takes both from it, and its
conjugate f*(phi) = psi(theta - phi) - f(theta) through ``_fstar_rows``.

The kernels reduce through :func:`row_sum` and :func:`row_max`, which return
bitwise what ``X.sum(axis=-1)`` and ``X.max(axis=-1)`` return.  numpy
reduces a short last axis in one inner-loop call per row; on many rows of a
short last axis the helpers reduce it column by column instead, in the
order numpy uses, which is several times faster.
"""

from __future__ import annotations

import functools
import math
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
# coordinates of a generator's point that span (with the implicit 0) more than
# this put an entry of p(theta), or of p(-phi), below ENTRY_FLOOR
_SPAN = -math.log(ENTRY_FLOOR)


class NonRegularError(ValueError):
    """Raised when an operation needs regularity the generator lacks."""


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} needs at least 1 entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


@dataclass(frozen=True)
class SimplexPoint:
    """A strictly positive probability vector (a point of the open simplex)."""

    p: np.ndarray

    def __init__(self, p):
        # array methods rather than np.all / np.any: the same checks, with
        # less call overhead on the single-point path
        arr = np.array(p, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a simplex point needs at least 2 coordinates")
        if not np.isfinite(arr).all():
            raise ValueError("simplex point entries must be finite")
        if (arr <= ENTRY_FLOOR).any():
            raise ValueError("simplex point entries must be strictly positive")
        total = arr.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"coordinates sum to {float(total)!r}, not 1")
        arr /= total
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @property
    def n(self) -> int:
        return self.p.size

    def __array__(self, dtype=None, copy=None):
        # np.array(point) asks for a copy, and gets one: p itself is read-only
        return np.array(self.p, dtype=dtype, copy=copy)

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


def point_rows(*points, gen=None) -> np.ndarray:
    """Validate points of one common dimension as one (k, n) array.

    Returns the array of their probability rows, each bitwise the ``p`` of
    a :class:`SimplexPoint` of it (a :class:`SimplexPoint` argument is taken
    as stored).  The :class:`SimplexPoint` checks run once on the stacked
    rows: one whole-array reduction for the least entry, which must exceed
    ``ENTRY_FLOOR``, and a test of the k row sums as floats, each within
    ``SUM_TOL`` of 1 (NaN and inf fail both, as in SimplexPoint).  Each row
    is then divided by its own sum; without a :class:`SimplexPoint`
    argument no per-row bookkeeping is done.  Ragged or failing input goes
    point by point through :class:`SimplexPoint`, which raises the error of
    the first failing point; points of different dimensions, or of another
    dimension than a generator ``gen`` of fixed ``dim``, are a
    ``ValueError`` naming both dimensions.  Their exponential coordinates
    are ``to_primal_many`` of the rows, bitwise equal to :func:`to_primal`.
    """
    try:
        P = np.array([x.p if isinstance(x, SimplexPoint) else x for x in points], dtype=float)
    except (ValueError, TypeError):
        P = None  # ragged rows, or entries that are not numbers
    total = _add_reduce(P, 1) if P is not None and P.ndim == 2 and P.shape[1] >= 2 else None
    # the least entry fails `> ENTRY_FLOOR` on nan and -inf, and an inf entry
    # (or an overflowing sum) fails the sum test, so these two are the
    # finiteness, positivity and sum checks of SimplexPoint; the few sums are
    # tested as floats, which costs less than a reduction
    if total is not None and _min_reduce(P, None) > ENTRY_FLOOR and all(
            abs(t - 1.0) <= SUM_TOL for t in total.tolist()):
        stored = [k for k, x in enumerate(points) if isinstance(x, SimplexPoint)]
        if stored:
            total[stored] = 1.0  # stored rows are already divided
        P /= total[:, None]
    else:
        rows = [x.p if isinstance(x, SimplexPoint) else SimplexPoint(x).p for x in points]
        try:
            P = np.array(rows)  # rows of unequal length do not stack
        except ValueError:
            sizes = [r.size for r in rows]
            raise ValueError(f"dimension mismatch: points of sizes {sizes}") from None
    dim = getattr(gen, "dim", None)  # a generator without one applies to any dimension
    if dim is not None and P.shape[1] != dim:
        raise ValueError(f"dimension mismatch: generator {gen.name} of dimension {dim}, "
                         f"points of dimension {P.shape[1]}")
    return P


def coord_rows(*coords, gen=None, rows: bool = False) -> np.ndarray:
    """Validate coordinates of one common shape as one stacked float array.

    Each is a :class:`PrimalCoord`, a :class:`DualCoord` or an array-like of
    m entries or, with ``rows``, an (N, m) array of rows; the result has
    shape ``(len(coords),) + shape``, m >= 1.  The stack is tested for finite
    entries once.  Failing input goes coordinate by coordinate, which raises
    the first failing coordinate's error; coordinates of different shapes,
    or of m + 1 entries other than the ``dim`` of a generator ``gen``, are
    a ``ValueError`` naming both dimensions.  A generator's coordinates that
    span more than ``_SPAN`` are a :class:`NonRegularError`.
    """
    arrays = [x.theta if isinstance(x, PrimalCoord) else x.phi if isinstance(x, DualCoord) else x
              for x in coords]
    try:
        # one coordinate (or one array of rows) is stacked as a view, not copied
        X = (np.asarray(arrays[0], dtype=float)[None] if len(arrays) == 1 else
             np.array(arrays, dtype=float))
    except (ValueError, TypeError):
        X = None  # ragged, or entries that are not numbers
    # the largest |entry| in one reduction: NaN if an entry is NaN
    top = (_max_reduce(abs(X), None, None, None, False, 0.0)
           if X is not None and 2 <= X.ndim <= 2 + rows and X.shape[-1] else math.nan)
    if not top < math.inf:
        for x in arrays:
            if rows and np.ndim(x) == 2:
                _as_vector(np.ravel(x), "coordinate rows")
            else:
                _as_vector(x, "coordinate")
        raise ValueError(f"dimension mismatch: coordinates of shapes "
                         f"{[np.shape(x) for x in arrays]}")
    dim = getattr(gen, "dim", None)
    if dim is not None and X.shape[-1] + 1 != dim:
        raise ValueError(f"dimension mismatch: generator {gen.name} of dimension {dim}, "
                         f"points of dimension {X.shape[-1] + 1}")
    # below top = _SPAN / 2 no row spans more than _SPAN
    if gen is not None and top > _SPAN / 2 and (
            row_max(X, initial=0.0) + row_max(-X, initial=0.0) > _SPAN).any():
        raise NonRegularError(f"{gen.name}: coordinates span more than {_SPAN:.6g}; "
                              f"the point lies on the simplex boundary")
    return X


# Rows from which a last axis of length 2-7 is reduced column by column.  At
# n = 3 the loop overtakes the ndarray method at about 64 rows for a sum and
# 16 for a max, at n = 5-7 at about 128 rows for a sum.
_COLUMN_ROWS = 128
_LOOP_MIN = 2 * _COLUMN_ROWS  # the fewest entries reduced by columns

# what X.sum, X.max and X.min call, through a Python wrapper that costs as
# much again on a single point
_add_reduce, _max_reduce, _min_reduce = np.add.reduce, np.maximum.reduce, np.minimum.reduce


def row_sum(X: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """``X.sum(axis=-1, keepdims=keepdims)`` of a float array, bitwise.

    On many rows of a short last axis the columns are added left to right,
    starting from ``0.0 + X[..., 0]``: numpy's order for at most 7 terms,
    signed zeros included.
    """
    # a single point, of size n, or a few points take the first test
    if X.size < _LOOP_MIN or not 2 <= (n := X.shape[-1]) <= 7 or X.size < _COLUMN_ROWS * n:
        return _add_reduce(X, -1, None, None, keepdims)
    total = 0.0 + X[..., 0]
    for j in range(1, n):
        total += X[..., j]
    return total[..., None] if keepdims else total


def row_max(X: np.ndarray, keepdims: bool = False, initial=None) -> np.ndarray:
    """``X.max(axis=-1, keepdims=keepdims, initial=initial)`` of a float
    array, bitwise; on many rows of a short last axis (as in
    :func:`row_sum`) a left fold of ``np.maximum`` over the columns, from
    ``initial`` if given."""
    if X.size < _LOOP_MIN or not 2 <= (n := X.shape[-1]) <= 7 or X.size < _COLUMN_ROWS * n:
        if initial is None:
            return _max_reduce(X, -1, None, None, keepdims)
        return _max_reduce(X, -1, None, None, keepdims, initial)
    top = X[..., 0].copy() if initial is None else np.maximum(initial, X[..., 0])
    for j in range(1, n):
        np.maximum(top, X[..., j], out=top)
    return top[..., None] if keepdims else top


def psi(x) -> float:
    """Log-partition ``log(1 + sum_i exp(x_i))``, computed with a max shift.

    ``x`` is one coordinate in R^(n-1), checked by :func:`coord_rows`; the
    implicit n-th entry is 0.
    """
    return float(psi_many(coord_rows(x)[0]))


def psi_many(X: np.ndarray) -> np.ndarray:
    """``psi`` over the last axis of a (..., n-1) array."""
    X = np.asarray(X, dtype=float)
    m = row_max(X, initial=0.0)
    return m + np.log(np.exp(-m) + row_sum(np.exp(X - m[..., None])))


def _softmax_psi(X: np.ndarray):
    """``from_primal_many(X)`` and ``psi_many(X)`` from one shifted exp; bitwise
    theirs, but at n = 8k, where numpy's unrolled sum regroups psi's terms."""
    Z = _with_tail(X)
    top = row_max(Z, keepdims=True)
    W = np.exp(Z - top)
    total = row_sum(W, keepdims=True)
    return W / total, (top + np.log(total))[..., 0]


def _f_rows(gen, Th: np.ndarray, points: bool = False):
    """f = phi(p(theta)) + psi(theta) over unchecked rows ``Th``; with ``points`` also p(theta)."""
    P, psi_th = _softmax_psi(Th)
    f = gen.log_gen(P) + psi_th
    return (f, P) if points else f


def _fstar_rows(gen, Th: np.ndarray, Ph: np.ndarray):
    """f*(phi) = psi(theta - phi) - f(theta) over rows ``Ph`` with inverse dual
    images ``Th``; at other ``Th``, the objective that f* minimizes."""
    return psi_many(Th - Ph) - _f_rows(gen, Th)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per n for the per-call kernels."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _with_tail(X: np.ndarray) -> np.ndarray:
    """(..., k) rows extended by the implicit last coordinate 0."""
    return np.concatenate([X, np.zeros(X.shape[:-1] + (1,))], axis=-1)


def _log_tilt(Pi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """log Z = log(sum_{i<n} pi_i e^{delta_i} + pi_n) over the last axis, kept
    as length 1; max-shifted on delta alone, so zero weights are allowed."""
    delta = _with_tail(delta)
    m = row_max(delta, keepdims=True)
    return m + np.log(row_sum(Pi * np.exp(delta - m), keepdims=True))


def softmax_with_tail(x) -> np.ndarray:
    """Full probability vector of the coordinate vector ``x`` in R^(n-1).

    Returns the n-vector proportional to ``(exp(x_1), ..., exp(x_{n-1}), 1)``,
    normalized to sum to one.  This is the inverse exponential-coordinate map
    before wrapping in :class:`SimplexPoint`.
    """
    return from_primal_many(np.atleast_1d(np.asarray(x, dtype=float)))


def to_primal(p) -> PrimalCoord:
    """Exponential coordinates ``theta_i = log(p_i / p_n)`` of a point."""
    return PrimalCoord(to_primal_many(point_rows(p)[0]))


def to_primal_many(P: np.ndarray) -> np.ndarray:
    """Exponential coordinates over the last axis of a (..., n) array of points."""
    L = np.log(np.asarray(P, dtype=float))
    return L[..., :-1] - L[..., -1:]


def from_primal_many(Theta: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_primal_many` over the last axis of a (..., n-1)
    array, max-shifted; a 1-d ``Theta`` gives one point."""
    Z = _with_tail(np.asarray(Theta, dtype=float))
    Z = Z - row_max(Z, keepdims=True)
    W = np.exp(Z)
    return W / row_sum(W, keepdims=True)


def from_primal(theta) -> SimplexPoint:
    """Inverse of :func:`to_primal`; overflow-safe for large coordinates."""
    return SimplexPoint(from_primal_many(coord_rows(theta)[0]))


def cost(theta, phi) -> CostValue:
    """Transport cost ``c(theta, phi) = psi(theta - phi)``.

    The ``normalized`` field is the equivalent cost with the affine part
    removed, ``psi(x) - log(n) - sum(x)/n``; by Jensen's inequality it is
    non-negative and zero exactly at ``theta == phi``.
    """
    t, f = coord_rows(theta, phi)
    x = t - f
    n = x.size + 1
    raw = psi_many(x)
    return CostValue(nats=float(raw), normalized=float(raw - np.log(n) - x.sum() / n))
