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

from .divergence import inverse_dual_coord
from .generators import Generator, NonRegularError, _dual_rows, _metric_rows, _portfolio_at
from .simplex import _log_tilt, _with_tail, coord_array, point_array, point_rows, to_primal_many

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
    "christoffel_lowered",
    "rc_curvature",
    "ricci",
    "sectional_curvature",
    "riem_gradient_primal",
    "riem_gradient_dual",
    "pullback_metric",
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


def _tilted(pi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Normalized two-point weights pi_l e^{delta_l} / Z, delta_n = 0 implicit."""
    return pi * np.exp(_with_tail(delta) - _log_tilt(pi, delta))


def pi_quantities(gen: Generator, theta, theta2) -> PiQuantities:
    """Weights Pi_i(theta, theta2): the portfolio at theta2 tilted toward theta."""
    th, th2 = coord_array(theta), coord_array(theta2)
    return PiQuantities(values=_tilted(_portfolio_at(gen, th2), th - th2), kind="primal")


def pi_quantities_dual(gen: Generator, phi, phi2) -> PiQuantities:
    """Weights Pi*_i(phi, phi2): the portfolio at the *first* point, tilted."""
    ph, ph2 = coord_array(phi), coord_array(phi2)
    pi = _portfolio_at(gen, inverse_dual_coord(gen, ph))
    return PiQuantities(values=_tilted(pi, ph - ph2), kind="dual")


# ---------------------------------------------------------------------------
# metric

def metric_euclidean(gen: Generator, p, u, v) -> float:
    """Inner product of tangent vectors in Euclidean coordinates.

    Tangent vectors must sum to zero.  The bilinear form is the metric of
    :func:`metric_primal` pulled back through the differential of the
    exponential coordinates, d theta_i = u_i / p_i - u_n / p_n; on the
    tangent hyperplane it equals ``-Hess Phi / Phi``.
    """
    arr = point_array(p)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if abs(u.sum()) > 1e-10 or abs(v.sum()) > 1e-10:
        raise ValueError("tangent vectors must have zero component sum")
    G = _metric_rows(gen.portfolio(arr), gen.dpi_dtheta(to_primal_many(arr)))
    du, dv = (w[:-1] / arr[:-1] - w[-1] / arr[-1] for w in (u, v))
    return float(du @ G @ dv)


def dual_jacobian(gen: Generator, theta) -> np.ndarray:
    """Analytic Jacobian d phi / d theta of the dual coordinate map."""
    th = coord_array(theta)
    return _jacobian_from_portfolio(_portfolio_at(gen, th), gen.dpi_dtheta(th))


def _jacobian_from_portfolio(pi: np.ndarray, dpi: np.ndarray) -> np.ndarray:
    """d phi / d theta from the portfolio pi and its derivative dpi / dtheta."""
    return np.eye(dpi.shape[1]) - dpi[:-1, :] / pi[:-1, None] + dpi[-1, :] / pi[-1]


def _metric_entries(gen: Generator, pi: np.ndarray, dpi: np.ndarray, J=None) -> np.ndarray:
    """Metric coefficients from the portfolio pi and dpi / dtheta: primal, or
    dual given the dual Jacobian ``J``.  The primal candidate, and the dual
    one when asked for, must be symmetric; the result is symmetrized and
    must be positive definite."""
    G, what = _metric_rows(pi, dpi), f"{gen.name}: metric"
    if J is not None:
        if np.max(np.abs(G - G.T)) > 1e-8:
            raise NonRegularError(f"{what} candidate not symmetric")
        # the same formula with d pi / d phi = dpi J^-1 and the opposite sign
        G, what = _metric_rows(pi, -(dpi @ np.linalg.inv(J))), f"{gen.name}: dual metric"
    if np.max(np.abs(G - G.T)) > 1e-8:
        raise NonRegularError(f"{what} candidate not symmetric")
    G = (G + G.T) / 2
    if np.linalg.eigvalsh(G).min() <= 0:
        raise NonRegularError(f"{what} not positive definite")
    return G


def metric_primal(gen: Generator, theta) -> MetricMatrix:
    """Metric coefficients in exponential coordinates, with closed-form inverse.

    The inverse combines the rank-one (Sherman-Morrison) inverse of
    ``I - 1 pi^T`` with the inverse dual Jacobian, avoiding a generic matrix
    inversion of the metric itself.
    """
    th = coord_array(theta)
    pi, dpi = _portfolio_at(gen, th), gen.dpi_dtheta(th)
    G = _metric_entries(gen, pi, dpi)
    M = np.diag(1.0 / pi[:-1]) + 1.0 / pi[-1]
    inv = np.linalg.solve(_jacobian_from_portfolio(pi, dpi), M)
    return MetricMatrix(entries=G, coord="primal", base_point=th.copy(), inv=inv)


def metric_dual(gen: Generator, phi=None, *, theta=None) -> MetricMatrix:
    """Metric coefficients in dual coordinates.

    Accepts either the dual coordinate ``phi`` (inverted numerically when the
    family has no closed form) or, as a shortcut, the primal coordinate of
    the same point.
    """
    if theta is None:
        th = inverse_dual_coord(gen, coord_array(phi))
    else:
        th = coord_array(theta)
    pi, dpi = _portfolio_at(gen, th), gen.dpi_dtheta(th)
    J = _jacobian_from_portfolio(pi, dpi)
    G = _metric_entries(gen, pi, dpi, J)
    inv = J @ (np.diag(1.0 / pi[:-1]) + 1.0 / pi[-1])
    base = _dual_rows(th, pi, gen.name) if phi is None else coord_array(phi)
    return MetricMatrix(entries=G, coord="dual", base_point=base, inv=inv)


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
    th = coord_array(theta)
    pi = _portfolio_at(gen, th)
    return ChristoffelTensor(
        gamma=_christoffel_raised(pi[:-1], +1.0), coord="primal", base_point=th.copy()
    )


def christoffel_dual(gen: Generator, phi=None, *, theta=None) -> ChristoffelTensor:
    if theta is None:
        th = inverse_dual_coord(gen, coord_array(phi))
        pi = _portfolio_at(gen, th)
        base = coord_array(phi)
    else:
        th = coord_array(theta)
        pi = _portfolio_at(gen, th)
        base = _dual_rows(th, pi, gen.name)
    return ChristoffelTensor(
        gamma=_christoffel_raised(pi[:-1], -1.0), coord="dual", base_point=base
    )


def christoffel_lowered(gen: Generator, point, which: str) -> np.ndarray:
    """Lowered coefficients Gamma_ijk obtained by contracting with the metric."""
    if which == "primal":
        tensor = christoffel_primal(gen, point)
        g = metric_primal(gen, point).entries
    elif which == "dual":
        tensor = christoffel_dual(gen, point)
        g = metric_dual(gen, point).entries
    else:
        raise ValueError("which must be 'primal' or 'dual'")
    return np.einsum("ijm,mk->ijk", tensor.gamma, g)


# ---------------------------------------------------------------------------
# curvature

def _metric_for(gen, point, which) -> MetricMatrix:
    return metric_primal(gen, point) if which == "primal" else metric_dual(gen, point)


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
    return np.einsum("ijki->jk", rc_curvature(gen, point, which))


def sectional_curvature(gen: Generator, point, u, v, which: str = "primal") -> float:
    """Sectional curvature of the plane span(u, v); constantly -1 in theory."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    g = _metric_for(gen, point, which)
    R = rc_curvature(gen, point, which)
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
    logZ = _log_tilt(pi, delta)
    return np.exp(delta - logZ) - np.exp(-logZ)


def riem_gradient_primal(gen: Generator, r, q) -> np.ndarray:
    """grad of T(r | .) at q, components in primal coordinates.

    Closed form: ((1 - exp(theta^r - theta^q)) / Z)_i with
    Z = sum_l pi_l(q) exp(theta^r_l - theta^q_l).
    """
    th_r, th_q = to_primal_many(point_rows(r, q))
    return -_tilt_gradient(_portfolio_at(gen, th_q), th_r - th_q)


def riem_gradient_dual(gen: Generator, p, q) -> np.ndarray:
    """grad of T(. | p) at q, components in dual coordinates.

    Closed form: ((exp(phi^q - phi^p) - 1) / Z*)_i with
    Z* = sum_l pi_l(q) exp(phi^q_l - phi^p_l).
    """
    Th = to_primal_many(point_rows(p, q))
    Pi = _portfolio_at(gen, Th)
    ph_p, ph_q = _dual_rows(Th, Pi, gen.name)
    return _tilt_gradient(Pi[1], ph_q - ph_p)


# ---------------------------------------------------------------------------
# coordinate transport of tensors

def pullback_metric(jacobian: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Bilinear form pulled back to the source coordinates: J^T g J."""
    J = np.asarray(jacobian)
    return J.T @ np.asarray(g) @ J
