"""Riemannian metric, dual connections, and curvature induced by T.

Differentiating the divergence T twice at the diagonal yields a Riemannian
metric; differentiating three times yields a pair of affine connections
whose coefficients close in terms of the portfolio alone:

    g_ij(theta)      = pi_i (d_ij - pi_j) - d pi_i / d theta_j
    Gamma^k_ij       = d_ijk - d_ik pi_j - d_jk pi_i          (primal)
    Gamma*^k_ij      = -d_ijk + d_ik pi_j + d_jk pi_i         (dual)
    R^l_ijk          = d_lj g_ik - d_li g_jk

(Kronecker deltas written d).  Both connections have constant sectional
curvature -1.  Every closed form here is validated by the test suite
against finite differences of T itself.

Index conventions: Christoffel arrays are stored as ``gamma[i, j, k]``
meaning the raised symbol with lower pair (i, j); curvature arrays as
``R[i, j, k, l]`` meaning the coefficient of ``d/d xi_l`` in
``R(d_i, d_j) d_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import _inverse, _ratios
from .generators import (
    Generator,
    NonRegularError,
    _check_interior,
    _dual_rows,
    _metric_rows,
    _portfolio_at,
)
from .simplex import (
    _as_vector,
    _identity,
    _log_tilt,
    _max_reduce,
    _with_tail,
    coord_rows,
    point_rows,
    to_primal_many,
)

__all__ = [
    "MetricMatrix",
    "ChristoffelTensor",
    "PiQuantities",
    "pi_quantities",
    "pi_quantities_dual",
    "metric_euclidean",
    "metric_primal",
    "metric_dual",
    "dual_jacobian",
    "christoffel_primal",
    "christoffel_dual",
    "rc_curvature",
    "ricci",
    "sectional_curvature",
    "riem_gradient_primal",
    "riem_gradient_dual",
]

@dataclass(frozen=True)
class MetricMatrix:
    """Symmetric positive-definite metric coefficients at a base point."""

    entries: np.ndarray
    coord: str
    base_point: np.ndarray
    inv: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self.entries @ np.asarray(v))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


@dataclass(frozen=True)
class ChristoffelTensor:
    """Raised connection coefficients gamma[i, j, k] = Gamma^k_ij."""

    gamma: np.ndarray
    coord: str
    base_point: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.gamma, dtype=dtype)

    def contract(self, v: np.ndarray) -> np.ndarray:
        """Quadratic form Gamma^k_ij v_i v_j for the geodesic equation."""
        return np.einsum("ijk,i,j->k", self.gamma, v, v)


@dataclass(frozen=True)
class PiQuantities:
    """The normalized two-point weights entering metric and gradient formulas."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        if np.any(self.values <= 0) or abs(self.values.sum() - 1.0) > 1e-8:
            raise NonRegularError("two-point weights must be a positive unit-sum vector")

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)


def _tilt_exp(pi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """e^{delta_l} / Z over the last axis, delta_n = 0 implicit: the
    exponentials that both the two-point weights and the Riemannian gradient
    of T are read from."""
    return np.exp(_with_tail(delta) - _log_tilt(pi, delta))


def _tilted(pi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Normalized two-point weights pi_l e^{delta_l} / Z, delta_n = 0 implicit."""
    return pi * _tilt_exp(pi, delta)


def pi_quantities(gen: Generator, theta, theta2) -> PiQuantities:
    """Weights Pi_i(theta, theta2): the portfolio at theta2 tilted toward theta."""
    th, th2 = coord_rows(theta, theta2, gen=gen)
    return PiQuantities(values=_tilted(_portfolio_at(gen, th2), th - th2), kind="primal")


def pi_quantities_dual(gen: Generator, phi, phi2) -> PiQuantities:
    """Weights Pi*_i(phi, phi2): the portfolio at the *first* point, tilted."""
    ph, ph2 = coord_rows(phi, phi2, gen=gen)
    pi = _portfolio_at(gen, _inverse(gen, ph[None])[0])
    return PiQuantities(values=_tilted(pi, ph - ph2), kind="dual")


# ---------------------------------------------------------------------------
# metric

def _tangent_pair(u, v, size: int):
    """u and v as float vectors, each 1-d with ``size`` finite entries; a
    ValueError names the one that is not."""
    u, v = _as_vector(u, "tangent vector u"), _as_vector(v, "tangent vector v")
    for name, w in (("u", u), ("v", v)):
        if w.size != size:
            raise ValueError(f"tangent vector {name} has {w.size} entries, not {size}")
    return u, v


def metric_euclidean(gen: Generator, p, u, v) -> float:
    """Inner product of tangent vectors in Euclidean coordinates.

    Tangent vectors must sum to zero.  The bilinear form is the metric of
    :func:`metric_primal` pulled back through the differential of the
    exponential coordinates, d theta_i = u_i / p_i - u_n / p_n; on the
    tangent hyperplane it equals ``-Hess Phi / Phi``.
    """
    arr = point_rows(p, gen=gen)[0]
    u, v = _tangent_pair(u, v, arr.size)
    if abs(u.sum()) > 1e-10 or abs(v.sum()) > 1e-10:
        raise ValueError("tangent vectors must have zero component sum")
    G = _metric_rows(gen.portfolio(arr), gen.dpi_dtheta(to_primal_many(arr)))
    du, dv = (w[:-1] / arr[:-1] - w[-1] / arr[-1] for w in (u, v))
    return float(du @ G @ dv)


def dual_jacobian(gen: Generator, theta) -> np.ndarray:
    """Analytic Jacobian d phi / d theta of the dual coordinate map."""
    th = coord_rows(theta, gen=gen)[0]
    return _jacobian_from_portfolio(_portfolio_at(gen, th), gen.dpi_dtheta(th))


def _jacobian_from_portfolio(pi: np.ndarray, dpi: np.ndarray) -> np.ndarray:
    """d phi / d theta from the portfolio pi and its derivative dpi / dtheta."""
    return _identity(dpi.shape[1]) - dpi[:-1, :] / pi[:-1, None] + dpi[-1, :] / pi[-1]


def _metric_entries(gen: Generator, pi: np.ndarray, dpi: np.ndarray, J=None):
    """Metric coefficients from the portfolio pi and dpi / dtheta: primal, or
    dual given the dual Jacobian ``J``.  The primal candidate, and the dual
    one when asked for, must be symmetric; the result G is symmetrized.
    Returns G and its lower Cholesky factor L, G = L L^T: the factorization
    certifies that G is positive definite (it fails otherwise, NaN entries
    included), and L gives inner products and norms as plain dot products,
    u^T G v = (L^T u) . (L^T v)."""
    G, what = _metric_rows(pi, dpi), f"{gen.name}: metric"
    if J is not None:
        if _max_reduce(abs(G - G.T), None) > 1e-8:
            raise NonRegularError(f"{what} candidate not symmetric")
        # the same formula with d pi / d phi = dpi J^-1 and the opposite sign
        G, what = _metric_rows(pi, -(dpi @ np.linalg.inv(J))), f"{gen.name}: dual metric"
    if _max_reduce(abs(G - G.T), None) > 1e-8:
        raise NonRegularError(f"{what} candidate not symmetric")
    G = (G + G.T) / 2
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise NonRegularError(f"{what} not positive definite") from None
    return G, L


def metric_primal(gen: Generator, theta) -> MetricMatrix:
    """Metric coefficients in exponential coordinates, with closed-form inverse.

    The inverse combines the rank-one (Sherman-Morrison) inverse of
    ``I - 1 pi^T`` with the inverse dual Jacobian, avoiding a generic matrix
    inversion of the metric itself.
    """
    return _metric_for(gen, theta, "primal")


def _dual_point(gen: Generator, phi, theta):
    """(theta, pi, phi) of a point given by exactly one of ``phi`` and ``theta``."""
    if (phi is None) == (theta is None):
        raise ValueError("give the point by exactly one of phi and theta")
    if theta is None:
        phi = coord_rows(phi, gen=gen)[0]
        th = _inverse(gen, phi[None])[0]
    else:
        th = coord_rows(theta, gen=gen)[0]
    pi = _portfolio_at(gen, th)
    _check_interior(pi, gen.name)  # the dual metric divides by pi
    return th, pi, _dual_rows(th, pi, gen.name) if phi is None else phi


def metric_dual(gen: Generator, phi=None, *, theta=None) -> MetricMatrix:
    """Metric coefficients in dual coordinates, at the point given by its dual
    coordinate ``phi`` or, as a shortcut, by its primal coordinate ``theta``."""
    return _metric(gen, *_dual_point(gen, phi, theta), dual=True)


def _metric(gen: Generator, th, pi, base, dual: bool = False) -> MetricMatrix:
    """The primal or dual metric at the unchecked coordinate ``th`` with
    portfolio ``pi``, recorded at ``base``."""
    dpi = gen.dpi_dtheta(th)
    J = _jacobian_from_portfolio(pi, dpi)
    G, _ = _metric_entries(gen, pi, dpi, J if dual else None)
    M = np.diag(1.0 / pi[:-1]) + 1.0 / pi[-1]
    inv = J @ M if dual else np.linalg.solve(J, M)
    return MetricMatrix(entries=G, coord="dual" if dual else "primal", base_point=base, inv=inv)


# ---------------------------------------------------------------------------
# connections

def _christoffel_raised(pi_trunc: np.ndarray, sign: float) -> np.ndarray:
    m = pi_trunc.size
    eye = np.eye(m)
    d3 = np.zeros((m, m, m))
    idx = np.arange(m)
    d3[idx, idx, idx] = 1.0
    gamma = d3 - eye[:, None, :] * pi_trunc[None, :, None] - eye[None, :, :] * pi_trunc[:, None, None]
    return sign * gamma


def christoffel_primal(gen: Generator, theta) -> ChristoffelTensor:
    th = coord_rows(theta, gen=gen)[0]
    pi = _portfolio_at(gen, th)
    return ChristoffelTensor(
        gamma=_christoffel_raised(pi[:-1], +1.0), coord="primal", base_point=th.copy()
    )


def christoffel_dual(gen: Generator, phi=None, *, theta=None) -> ChristoffelTensor:
    _, pi, base = _dual_point(gen, phi, theta)
    return ChristoffelTensor(
        gamma=_christoffel_raised(pi[:-1], -1.0), coord="dual", base_point=base
    )


# ---------------------------------------------------------------------------
# curvature

def _metric_for(gen, point, which) -> MetricMatrix:
    if which == "primal":
        th = coord_rows(point, gen=gen)[0]
        return _metric(gen, th, _portfolio_at(gen, th), th.copy())
    return _metric(gen, *_dual_point(gen, point, None), dual=True)


def rc_curvature(gen: Generator, point, which: str = "primal") -> np.ndarray:
    """Curvature tensor R[i,j,k,l] = d_lj g_ik - d_li g_jk (closed form)."""
    return _rc_closed(_metric_for(gen, point, which).entries)


def _rc_closed(g: np.ndarray) -> np.ndarray:
    m = g.shape[0]
    eye = np.eye(m)
    # R[i,j,k,l] = eye[l,j] g[i,k] - eye[l,i] g[j,k]
    R = np.einsum("lj,ik->ijkl", eye, g) - np.einsum("li,jk->ijkl", eye, g)
    return R


def ricci(gen: Generator, point, which: str = "primal") -> np.ndarray:
    """Ricci tensor Ric_jk = R^i_ijk (trace over the first slot)."""
    return np.einsum("ijki->jk", _rc_closed(_metric_for(gen, point, which).entries))


def sectional_curvature(gen: Generator, point, u, v, which: str = "primal") -> float:
    """Sectional curvature of the plane span(u, v); constantly -1 in theory."""
    g = _metric_for(gen, point, which)
    u, v = _tangent_pair(u, v, g.entries.shape[0])
    R = _rc_closed(g.entries)
    Ruvv = np.einsum("ijkl,i,j,k->l", R, u, v, v)
    num = float(Ruvv @ g.entries @ u)
    den = g.inner(u, u) * g.inner(v, v) - g.inner(u, v) ** 2
    if den < 1e-14:
        raise ValueError("degenerate plane: u and v are (nearly) parallel")
    return num / den


# ---------------------------------------------------------------------------
# Riemannian gradients of the divergence

def _tilt_gradient(pi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """(e^delta - 1) / Z over the last axis, Z = sum_l pi_l e^{delta_l} with
    delta_n = 0: the Riemannian gradient of T at the point with portfolio pi."""
    E = _tilt_exp(pi, delta)
    return E[..., :-1] - E[..., -1:]


def riem_gradient_primal(gen: Generator, r, q) -> np.ndarray:
    """grad of T(r | .) at q, components in primal coordinates.

    Closed form: ((1 - exp(theta^r - theta^q)) / Z)_i with
    Z = sum_l pi_l(q) exp(theta^r_l - theta^q_l).  With X = r/q the tilt
    exp(theta^r - theta^q) / Z is X / (pi(q) . X), the ratio of T(r | q).
    """
    R, Q = point_rows(r, q, gen=gen)
    X, ratio = _ratios(R, Q, gen.portfolio(Q))
    E = X / ratio
    return E[-1] - E[:-1]


def riem_gradient_dual(gen: Generator, p, q) -> np.ndarray:
    """grad of T(. | p) at q, components in dual coordinates.

    Closed form: ((exp(phi^q - phi^p) - 1) / Z*)_i with
    Z* = sum_l pi_l(q) exp(phi^q_l - phi^p_l).  With X = q/p the tilt
    exp(phi^q - phi^p) / Z* is X pi(p) / pi(q) / (pi(p) . X), the ratio
    of T(q | p), as in :func:`~lgeo.geodesics.pythagorean_sign`.
    """
    P = point_rows(p, q, gen=gen)
    Pi = gen.portfolio(P)
    _check_interior(Pi, gen.name)  # the dual tilt needs pi(p), pi(q) > 0
    X, ratio = _ratios(P[1], P[0], Pi[0])
    E = X * Pi[0] / (Pi[1] * ratio)
    return E[:-1] - E[-1]
