"""Primal and dual geodesics, gradient flows, and the right-angle criterion.

Primal geodesics trace Euclidean straight lines on the simplex; dual
geodesics trace straight lines in dual Euclidean coordinates.  In
exponential coordinates the primal geodesic from q to r is

    theta_k(t) = log((1 - h) e^{theta^q_k} + h e^{theta^r_k}),

where the reparameterization h(t) solves h'' = 2 (h')^2 d/dh f(theta(h)),
equivalently h'(t) proportional to exp(2 f(theta(t))).  That first-order
reduction separates, so h is computed by quadrature of exp(-2 f) and
monotone inversion rather than by shooting; the dual geodesic likewise with
f* and reciprocal coordinates.  Both geodesics and both flows run on one
chord map, in a parameter logistic in h at the scale of each end, so that
ends near a face of the simplex resolve to rounding.  Without a closed
form, the inverse dual images come from a continuation along the chord,
each batched Newton solve starting from an interpolant through the rows
already solved.  The exponential map follows the same chords from a point
and a velocity and names the exact time at which one leaves the simplex.
The quadrature table is refined under an error estimate until it converges
(adaptive Gauss quadrature, Gander & Gautschi 2000); each of its levels, and
each Newton step of the polish of h(t), evaluates the weight at once.

Gradient flows of T(r | .) and T(. | p) retrace the same geodesics up to a
time change, which yields inverse exponential maps for free.  On the chord
x_r + (x_q - x_r) e^{-s} (x = e^theta, or e^{-phi} for the dual flow) the
flow time is t(s) = int_0^s Z, inverted at uniform times by the same chord
quadrature as the geodesics, unnormalized.  The sign of
T(q|p) + T(r|q) - T(r|p) is the sign of the Riemannian angle defect at q
between the two geodesics; `pythagorean_sign` evaluates the gap, the
actual metric inner product, and the equivalent algebraic sign quantity
through three independent code paths.

Importing this module loads no scipy: only :meth:`Curve.spline` and
:func:`geodesic_residual` import ``scipy.interpolate.CubicSpline``, on
first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import divergence
from ._table import write_table
from .divergence import ConvergenceError, _t_euclid, f_value, inverse_dual_coord
from .generators import Generator, _dual_rows, _portfolio_at
from .geometry import _jacobian_from_portfolio, _metric_entries, _tilt_gradient, _tilted
from .simplex import (
    _as_vector,
    _log_tilt,
    coord_array,
    from_primal_many,
    point_rows,
    psi_many,
    to_primal_many,
)

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

__all__ = [
    "Curve",
    "PythResult",
    "RegionSample",
    "DualRangeError",
    "GeodesicBlowupError",
    "primal_geodesic",
    "dual_geodesic",
    "integrate_geodesic",
    "geodesic_residual",
    "primal_flow",
    "dual_flow",
    "inverse_exp",
    "pythagorean_sign",
    "region_sample",
    "region_gap",
]

DEFAULT_GRID = 129
_TABLE = 16         # intervals of the grid that a chord quadrature table starts from
_COARSE = 32        # stride of the grid nodes that a chord inverse solves cold
_CHORD = 1025       # uniform grid of a chord's parameter: its cold nodes and row cap


class DualRangeError(RuntimeError):
    """A dual-coordinate curve left the range of the dual coordinate system."""

    def __init__(self, msg, last_valid_t=None):
        super().__init__(msg)
        self.last_valid_t = last_valid_t


class GeodesicBlowupError(RuntimeError):
    """A geodesic reached the simplex boundary before its last time."""

    def __init__(self, msg, last_valid_t=None):
        super().__init__(msg)
        self.last_valid_t = last_valid_t


@dataclass
class Curve:
    """A discretized path in a declared coordinate system."""

    times: np.ndarray
    points: np.ndarray
    coord: str
    velocities: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0):
            raise ValueError("curve times must be strictly increasing")
        if self.points.shape[0] != self.times.size:
            raise ValueError("one point per time stamp required")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("curve points must be finite")
        if self.velocities is not None:
            self.velocities = np.asarray(self.velocities, dtype=float)
            if self.velocities.shape != self.points.shape:
                raise ValueError("velocities must match points in shape")

    def __len__(self):
        return self.times.size

    def spline(self) -> CubicSpline:
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.times, self.points, axis=0)

    def euclidean_trace(self) -> np.ndarray:
        """Trace on the simplex: p(theta) for primal curves, p(-phi) for dual."""
        if self.coord == "primal":
            return from_primal_many(self.points)
        if self.coord == "dual":
            return from_primal_many(-self.points)
        if self.coord == "euclidean":
            return self.points
        raise ValueError(f"no Euclidean trace for coord {self.coord!r}")

    def to_csv(self, path) -> None:
        label = {"primal": "theta", "dual": "phi", "euclidean": "p"}.get(self.coord, "x")
        write_table(path, ["t"] + [f"{label}_{i + 1}" for i in range(self.points.shape[1])],
                    [self.times, *self.points.T])


def _grid(grid) -> np.ndarray:
    """Output times on [0, 1]: the default grid, ``grid`` uniform times (at
    least 2), or an increasing array of times inside [0, 1]."""
    if grid is None:
        return np.linspace(0.0, 1.0, DEFAULT_GRID)
    if np.isscalar(grid):
        if int(grid) < 2:
            raise ValueError(f"a grid needs at least 2 times, got {grid}")
        return np.linspace(0.0, 1.0, int(grid))
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or np.any(np.diff(g) <= 0) or g[0] < 0 or g[-1] > 1:
        raise ValueError("grid must be increasing inside [0, 1]")
    return g


def _flow_times(horizon: float, steps: int) -> np.ndarray:
    """Uniform times on [0, horizon], steps >= 1 and horizon finite positive."""
    if steps < 1 or not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"need steps >= 1 and a finite positive end time, "
                         f"got steps={steps}, end time={horizon}")
    return np.linspace(0.0, horizon, steps + 1)


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x), overflow-safe; several times faster than np.logaddexp."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _chord_map(a: np.ndarray, b: np.ndarray, flow: bool = False):
    """The chord from e^a toward e^b in u = log((l_a + tau) / (l_b + 1 - tau)),
    l = min_k x_k / |x_b,k - x_a,k| (at most 1) at each end being the scale
    over which the weights change there: geometric in tau (1 - tau) down to
    that scale, and finite at the ends, where u - u_a and u_b - u keep the
    precision of the chord's rows.  A flow has no far end, l_b = 0, and
    1 - tau = e^-s, s = log1p(e^u) - log1p(l_a).  Returns the map from u to
    rows log((1 - tau) e^a + tau e^b), exact at the ends, the map from u to
    log dtau/du (log ds/du for a flow), and ``_CHORD`` uniform u from u_a to
    u_b, or for a flow to where e^-s |x_b - x_a| rounds away (s at least 1).
    """
    d = b - a
    with np.errstate(divide="ignore"):  # log 0 where d = 0
        log_em1 = np.log(-np.expm1(-np.abs(d)))  # log |expm1(d)| - max(d, 0)
    log_la = min(-np.max(log_em1 + np.maximum(d, 0.0)), 0.0)
    log_lb = -np.max(log_em1 + np.maximum(-d, 0.0))  # before its cap at 0
    la, lb = math.exp(log_la), 0.0 if flow else math.exp(min(log_lb, 0.0))
    u_a, u_b = log_la - math.log1p(lb), math.log1p(la) - min(log_lb, 0.0) if lb else math.inf
    s_end = max(-log_lb - math.log(np.finfo(float).eps), 1.0)

    def chord(u):
        soft = _softplus(u)
        with np.errstate(divide="ignore"):  # log 0 at an end
            log_tau = u - soft + math.log1p(lb) + np.log(-np.expm1(u_a - u))
            log_rest = math.log1p(la) - soft + (np.log(-np.expm1(u - u_b)) if lb else 0.0)
        # at an end one of tau and 1 - tau is 0, and the other is exactly 1
        x = np.where(log_tau == -np.inf, 0.0, log_rest)[:, None] + a
        y = np.where(log_rest == -np.inf, 0.0, log_tau)[:, None] + b
        top = np.maximum(x, y)  # then log(e^x + e^y), faster than np.logaddexp
        return top + np.log1p(np.exp(np.minimum(x, y) - top))

    if flow:
        return (chord, lambda u: u - _softplus(u),
                np.linspace(u_a, s_end + math.log1p(la - math.exp(-s_end)), _CHORD))
    return (chord, lambda u: math.log(1.0 + la + lb) + u - 2.0 * _softplus(u),
            np.linspace(u_a, u_b, _CHORD))


# 5-point Gauss-Legendre rule on [-1, 1]
_GL_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                  0.5384693101056831, 0.906179845938664])
_GL_W = np.array([0.23692688505618908, 0.47862867049936647, 0.5688888888888889,
                  0.47862867049936647, 0.23692688505618908])


# a table interval's 15 nodes on [-1, 1], its Gauss nodes then its halves', and the
# map from the weight there to the monomial coefficients of its interpolant's integral
_GL_15 = np.concatenate((_GL_X, (_GL_X - 1.0) / 2.0, (_GL_X + 1.0) / 2.0))
_INT_15 = np.vstack(((-1.0) ** np.arange(15) / np.arange(1, 16), np.diag(1.0 / np.arange(1, 16)))
                    ) @ np.linalg.inv(np.vander(_GL_15, increasing=True))


def _gl_nodes(a: np.ndarray, b: np.ndarray):
    """Gauss-Legendre nodes of the intervals [a_i, b_i], flattened in order,
    and the half widths of the intervals."""
    mid, half = (a + b) / 2, (b - a) / 2
    return (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel(), half


def _gauss_segment(w, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """5-point Gauss integrals of the weight ``w`` over each [a_i, b_i]."""
    nodes, half = _gl_nodes(a, b)
    return half * (w(nodes).reshape(-1, _GL_X.size) @ _GL_W)


def _reparam_from_weight(logw, s_dense: np.ndarray, t_out: np.ndarray, normalized: bool = True):
    """Invert the time t(s) = int w along a chord from ``s_dense[0]``, where
    w = exp(logw), and ``logw`` maps an array of chord parameters to log w.

    The t(s) table is adaptive: from about ``_TABLE`` intervals of the grid
    ``s_dense``, each level evaluates the weight once on the 5-point Gauss
    nodes of every open interval and of its two halves, accepts an interval
    when the two estimates agree to 3e-15 of the running total or its halves
    are no longer distinct floats, and splits the others.  Each accepted
    interval enters the table as its two halves.  Each interior output time
    starts at the root of the integral of the degree-14 interpolant of w at
    its interval's 15 nodes, and all are polished by at most four Newton
    steps anchored at the half below.  With tol = 1e-15 max(1, t), a row
    retires once its residual |F| is below tol, or after an unclipped step d
    with k (w / W) d^2 below tol, k being 8 times the steepest secant of
    log w between the nodes of its interval and its neighbours'.  That bounds
    Newton's quadratic term |d log w / ds| (w / W) d^2 / 2 for slopes up to
    16 such secants.  ``normalized`` (geodesics): t(s_dense[-1]) = 1; returns
    s at the output times and log W, W the integral of w.  Otherwise (flows)
    t grows linearly past the grid; returns s at the output times.
    """
    grid = s_dense[np.unique(np.linspace(0, s_dense.size - 1, _TABLE + 1).astype(int))]
    a, b = grid[:-1], grid[1:]
    shift, done, parts = -np.inf, 0.0, []  # parts: accepted intervals, log w at their nodes
    while a.size:
        m = (a + b) / 2
        nodes, half = _gl_nodes(np.hstack((a, a, m)), np.hstack((b, m, b)))
        lw = logw(nodes).reshape(3, -1, _GL_X.size)
        new = max(shift, lw.max())  # rescale what is accepted so that exp never overflows
        done, shift = done * np.exp(shift - new), new
        whole, left, right = np.exp(lw - shift) @ _GL_W * half.reshape(3, -1)
        # NaN is accepted, so that it reaches the output instead of splitting forever
        ok = ~(np.abs(whole - left - right) > 3e-15 * (done + (left + right).sum()))
        ok |= (a == m) | (m == b)
        parts.append((a[ok], b[ok], lw[:, ok].transpose(1, 0, 2).reshape(-1, _GL_15.size)))
        done += (left[ok] + right[ok]).sum()
        a, b = np.hstack((a[~ok], m[~ok])), np.hstack((m[~ok], b[~ok]))
    order = np.argsort(np.concatenate([p[0] for p in parts]))
    a, b, lw = (np.concatenate(p)[order] for p in zip(*parts))
    w_nodes, mid, rad = np.exp(lw - shift), (a + b) / 2, (b - a) / 2
    halves = np.column_stack(((mid - a) * (w_nodes[:, 5:10] @ _GL_W),
                              (b - mid) * (w_nodes[:, 10:] @ _GL_W))) / 2
    S, cum = np.append(np.column_stack((a, mid)), b[-1]), np.append(0.0, np.cumsum(halves))
    w = lambda x: np.exp(logw(x) - shift)
    W = cum[-1] if normalized else np.exp(-shift)
    t_of_s, t_end = cum / W, cum[-1] / W
    # per interval: 8 times the steepest secant of log w between its nodes and its neighbours'
    by_x = np.argsort(_GL_15)
    secant = np.max(np.abs(np.diff(lw[:, by_x], axis=1)) / np.diff(_GL_15[by_x]), axis=1) / rad
    kappa = 8.0 * np.fmax(secant, np.fmax(np.r_[secant[:1], secant[:-1]],
                                          np.r_[secant[1:], secant[-1:]]))
    h = np.full_like(t_out, S[0])
    tail = t_out >= t_end
    h[tail] = S[-1] if normalized else S[-1] + (t_out[tail] - t_end) * W / w_nodes[-1, -1]
    rows = np.flatnonzero((t_out > 0.0) & ~tail)
    t_star = t_out[rows]
    j = np.clip(np.searchsorted(t_of_s, t_star) - 1, 0, S.size - 2)  # the half below
    i = j // 2
    # the start: Newton on the interpolant's integral over [a_i, mid_i + rad_i xi]
    integral = _INT_15 @ (w_nodes[i].T * rad[i])
    slope = integral[1:] * np.arange(1.0, _GL_15.size + 1)[:, None]
    target = t_star * W - cum[2 * i]
    u = (t_star - t_of_s[j]) / (t_of_s[j + 1] - t_of_s[j])  # linear on the half
    xi = (S[j] + u * (S[j + 1] - S[j]) - mid[i]) / rad[i]
    powers = np.empty_like(integral)
    for _ in range(2):
        powers[0], powers[1:] = 1.0, xi
        np.multiply.accumulate(powers, out=powers)
        F = np.einsum("pr,pr->r", powers, integral) - target
        xi = np.clip(xi - F / np.einsum("pr,pr->r", powers[:-1], slope), -1.0, 1.0)
    anchor_s, anchor_t, k = S[j], cum[j], kappa[i]
    x = np.fmin(np.fmax(mid[i] + rad[i] * xi, anchor_s), S[j + 1])  # NaN falls to its start
    h[rows] = x
    for _ in range(4):
        if rows.size == 0:
            break
        F = (anchor_t + _gauss_segment(w, anchor_s, x)) / W - t_star
        newton = x - F / (w(x) / W)
        x, last = np.clip(newton, S[0], S[-1]), x
        h[rows] = x
        tol = 1e-15 * np.maximum(1.0, t_star)
        # an unclipped step d leaves about F'' d^2 / 2 = (d log w / ds) F' d^2 / 2,
        # which k |F d| = k F' d^2 bounds, with no overflow as |d| is at most the
        # grid's length; a NaN row is never converged here
        converged = (x == newton) & (k * np.abs(F * (x - last)) < tol)
        active = (np.abs(F) >= tol) & ~converged
        rows, anchor_s, anchor_t, t_star, x, k = (
            rows[active], anchor_s[active], anchor_t[active], t_star[active], x[active], k[active]
        )
    return (h, math.log(W) + shift) if normalized else h


def _chord_inverse(gen: Generator, chord, grid: np.ndarray):
    """The inverse dual map ``theta(s, Ph)`` of rows ``Ph = chord(s)`` on a
    dual chord, and ``start(s)``, the predictor of its Newton starts (None
    with a closed form).  Every ``_COARSE``-th node of the increasing ``grid``
    and its last are solved cold.  Each call is then a predictor-corrector
    step of a continuation (Allgower & Georg 2003): batched Newton from the
    Lagrange interpolant through the six nearest solved rows, clipped to
    their range.  Its rows join the solved rows, thinned evenly in s to at
    most ``grid.size``; a row at a kept s starts at its solution."""
    if gen.dual_map_inverse(chord(grid[:1])) is not None:
        return (lambda s, Ph: inverse_dual_coord(gen, Ph)), lambda s: None
    S = grid[np.r_[0 : grid.size - 1 : _COARSE, grid.size - 1]]
    Th = inverse_dual_coord(gen, chord(S))  # the solved rows, by increasing s

    def start(s):  # in blocks of 256 rows, which bounds the (6, 6, rows) factors below
        out, i = [], np.arange(min(6, S.size))
        for x in np.split(np.clip(s, S[0], S[-1]), range(256, s.size, 256)):
            J = np.clip(np.searchsorted(S, x) - i.size // 2, 0, S.size - i.size) + i[:, None]
            X, rows = S[J], np.take(Th, J, axis=0)  # the rows nearest each x, as (6, len(x))
            # the Lagrange factors (x - X_b) / (X_a - X_b) at [a, b], and 1 where a = b
            L = (x - X) / (X[:, None] - X[None] + np.eye(i.size)[:, :, None])
            L[i, i] = 1.0
            # near-repeated s can make the weights blow up, so clip to the rows' range
            out.append(np.clip(np.einsum("ki,kim->im", L.prod(1), rows), rows.min(0), rows.max(0)))
        return np.concatenate(out)

    def theta(s, Ph):
        nonlocal S, Th
        th = inverse_dual_coord(gen, Ph, x0=start(s))
        S, first = np.unique(np.concatenate((S, s)), return_index=True)
        keep = np.linspace(0, S.size - 1, min(S.size, grid.size)).round().astype(int)
        S, Th = S[keep], np.concatenate((Th, th))[first[keep]]
        return th

    return theta, start


def _geodesic_log_weight(gen: Generator, chord, theta=None):
    """The log weight -2 f of a primal ``chord``, or -2 f* of a dual one with
    inverse dual images ``theta(u, Ph)`` (:func:`_chord_inverse`), as an
    array function of the chord parameter."""
    if theta is None:
        return lambda u: -2.0 * f_value(gen, chord(u))

    def logw(u):
        # f*(phi) = psi(theta - phi) - f(theta) at theta = inverse dual image
        Ph = chord(u)
        Th = theta(u, Ph)
        return -2.0 * (psi_many(Th - Ph) - f_value(gen, Th))

    return logw


def _chord(gen: Generator, q, r, sign: float, flow: bool = False):
    """The theta (``sign`` 1) or phi (-1) rows xi of q and r, the chord
    u -> xi with its log rate and grid (:func:`_chord_map`), and for phi
    rows ``theta`` and ``start`` of :func:`_chord_inverse`."""
    Th = to_primal_many(point_rows(q, r))
    xi = Th if sign > 0 else _dual_rows(Th, _portfolio_at(gen, Th), gen.name)
    line, log_rate, grid = _chord_map(*(sign * xi), flow)
    chord = lambda u: sign * line(u)
    inverse = _chord_inverse(gen, chord, grid) if sign < 0 else (None, lambda u: None)
    return xi, chord, log_rate, grid, *inverse


def _geodesic(gen: Generator, q, r, grid, sign: float, check_range: bool = False) -> Curve:
    """The primal (``sign`` 1) or dual (-1) geodesic from q to r: x = e^{sign xi}
    runs straight at tau(t), dt/dtau proportional to exp(-2 F), F = f or f*,
    inverted in the u of :func:`_chord_map` with the weight exp(-2 F) dtau/du."""
    t_out = _grid(grid)
    coord = "primal" if sign > 0 else "dual"
    xi, chord, log_rate, grid, theta, start = _chord(gen, q, r, sign)
    if np.allclose(xi[0], xi[1], atol=1e-14):
        pts = np.broadcast_to(xi[0], (t_out.size, xi.shape[1])).copy()
        return Curve(t_out, pts, coord, velocities=np.zeros_like(pts))
    logw = _geodesic_log_weight(gen, chord, theta)
    u, log_total = _reparam_from_weight(lambda u: logw(u) + log_rate(u), grid, t_out)
    pts = chord(u)
    # xi_dot_k = sign tau'(t) (x_r,k - x_q,k) / x_k, with tau'(t) = W exp(2 F)
    x_q, x_r = np.exp(sign * xi)
    vel = sign * np.exp(log_total - logw(u))[:, None] * (x_r - x_q) * np.exp(-sign * pts)
    curve = Curve(t_out, pts, coord, velocities=vel)
    if check_range:
        _dual_range_guard(gen, curve, start(u))
    return curve


def primal_geodesic(gen: Generator, q, r, grid=None) -> Curve:
    """Geodesic of the primal connection from q to r on [0, 1].

    The Euclidean trace is the straight segment [q, r]; the affine
    parameterization comes from adaptive quadrature of exp(-2 f) along it,
    accurate to rounding also near a face of the simplex (:func:`_geodesic`).
    """
    return _geodesic(gen, q, r, grid, 1.0)


def dual_geodesic(gen: Generator, q, p, grid=None, check_range: bool = True) -> Curve:
    """Geodesic of the dual connection from q to p on [0, 1].

    The dual Euclidean trace is the straight segment between the dual
    Euclidean images of q and p.  Along the way the curve must stay inside
    the range of the dual coordinate map; with ``check_range`` the Fenchel
    equality is re-verified through the conjugate minimization at every
    output node, all nodes at once (:func:`_dual_range_guard`).  h(t) comes
    from adaptive quadrature of exp(-2 f*) as for the primal geodesic.
    """
    return _geodesic(gen, q, p, grid, -1.0, check_range)


def _dual_range_guard(gen, curve, start=None):
    """Re-verify the Fenchel equality at every output node of a dual curve.

    All nodes at once: one :func:`inverse_dual_coord` call on the curve
    points, started at ``start`` (rows the chord inverse already solved) or
    else at each row's own dual coordinate, one batched conjugate
    minimization started at those rows, and the gap f(theta) + f*(phi) -
    psi(theta - phi) against 1e-6.  Raises :class:`DualRangeError` at the
    first output time whose row fails to solve or breaks the bound.
    """
    times, Ph = curve.times, curve.points
    solved = times.size  # rows ahead of the first one the inverse fails on
    try:
        Th0 = inverse_dual_coord(gen, Ph, x0=start)
    except ConvergenceError as exc:
        solved = exc.row
        Th0 = inverse_dual_coord(gen, Ph[:solved], x0=None if start is None else start[:solved])
    Ph = Ph[:solved]
    Th, _, ok = divergence._newton_max_u(gen, Ph, Th0)
    fstar = psi_many(Th - Ph) - f_value(gen, Th)
    gap = np.abs(f_value(gen, Th0) + fstar - psi_many(Th0 - Ph))
    bad = np.flatnonzero(~ok | ~(gap <= 1e-6))
    first = bad[0] if bad.size else solved
    if first < times.size:
        t = times[first]
        if first < solved and ok[first]:
            raise DualRangeError(
                f"Fenchel equality fails by {gap[first]:.2e} at t={t:.6f}", last_valid_t=t
            )
        raise DualRangeError(f"dual geodesic left the dual range near t={t:.6f}", last_valid_t=t)


# ---------------------------------------------------------------------------
# the exponential map

# the largest reach in the chord parameter u: the largest power of two at
# which expm1(u) and exp(-u) are both finite and normal
_REACH = 512.0


def _rk4_step(rhs, y, dt, k1):
    """One classical RK4 step from ``y``, where ``k1 = rhs(y)`` is given.
    The library does not call it; the tests' RK4 flow oracle does."""
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_geodesic(gen: Generator, xi0, v0, which: str = "primal",
                       steps: int = DEFAULT_GRID - 1, t_end: float = 1.0) -> Curve:
    """The exponential map: the geodesic from ``xi0`` with initial velocity
    ``v0``, at ``steps + 1`` uniform times on [0, t_end].

    A time change of the chord theta0 + log1p(tau v0) (primal) or
    phi0 - log1p(-tau v0) (dual), with dt/dtau = exp(-2 (F(tau) - F(0))),
    F = f or f*.  The chord ends at tau_max, the least 1/|v0_k| over the
    components that drive 1 +- tau v0_k to zero (infinity if none).  In
    u >= 0, tau = expm1(u) / (a + expm1(u) / tau_max) with a = max |v0|,
    geometric near both ends.  A coarse pass doubles the reach in u from 1
    until t passes ``t_end``; :func:`_reparam_from_weight` then inverts
    the times by adaptive quadrature.  Raises :class:`GeodesicBlowupError`
    if the chord reaches the simplex boundary (u = ``_REACH``) first, naming
    the exit time t*; ``last_valid_t`` is the last output time before it.
    Dual curves go through :func:`_dual_range_guard`.
    """
    if which not in ("primal", "dual"):
        raise ValueError("which must be 'primal' or 'dual'")
    times = _flow_times(t_end, steps)
    xi, v = coord_array(xi0), _as_vector(v0, "velocity")
    if v.shape != xi.shape:
        raise ValueError(f"velocity of shape {v.shape} at a coordinate of shape {xi.shape}")
    a = np.max(np.abs(v)) or 1.0  # any scale serves a zero velocity
    sign = 1.0 if which == "primal" else -1.0
    w = sign * v / a
    c = max(0.0, -w.min())  # 1 / (a tau_max)

    def lift(u):
        # log1p(sign tau v0), without cancellation as tau -> tau_max
        E = np.expm1(u)[:, None]
        return np.log1p(E * (c + w)) - np.log1p(E * c)

    chord = lambda u: xi + sign * lift(u)

    def log_rate(grid):
        """-2 (F(u) - F(0)) and log dt/du, with inverse dual images on ``grid``."""
        theta = _chord_inverse(gen, chord, grid)[0] if which == "dual" else None
        logw = _geodesic_log_weight(gen, chord, theta)
        F0 = logw(grid[:1])[0]
        dF = lambda u: logw(u) - F0
        return dF, lambda u: dF(u) + u - 2.0 * np.log1p(c * np.expm1(u)) - math.log(a)

    reach = lambda grid, rate: _gauss_segment(lambda u: np.exp(rate(u)), grid[:-1], grid[1:]).sum()

    u_end = 1.0
    while True:
        coarse = np.linspace(0.0, u_end, max(64, 2 * int(u_end)) + 1)
        if u_end == _REACH or reach(coarse, log_rate(coarse)[1]) >= t_end:
            grid = np.linspace(0.0, u_end, _CHORD)
            dF, rate = log_rate(grid)
            u = _reparam_from_weight(rate, grid, times, normalized=False)
            if u[-1] < u_end:
                break
            if u_end == _REACH:
                raise GeodesicBlowupError(
                    f"geodesic reaches the boundary of the simplex at t*={reach(grid, rate):.17g}",
                    last_valid_t=times[u < u_end][-1],
                )
        u_end *= 2.0
    curve = Curve(times, chord(u), which, velocities=v * np.exp(-lift(u) - dF(u)[:, None]))
    if which == "dual":
        _dual_range_guard(gen, curve)
    return curve


def _residual_values(gen, times, points, coord, eval_times, end_velocities=None) -> np.ndarray:
    """Geodesic-equation residual of the spline through the points, one row
    per evaluation time, all rows at once."""
    from scipy.interpolate import CubicSpline

    bc = "not-a-knot"
    if end_velocities is not None:
        bc = ((1, end_velocities[0]), (1, end_velocities[1]))
    spl = CubicSpline(times, points, axis=0, bc_type=bc)
    xi, v, a = spl(eval_times), spl.derivative(1)(eval_times), spl.derivative(2)(eval_times)
    th, sign = (inverse_dual_coord(gen, xi), -1.0) if coord == "dual" else (xi, 1.0)
    mix = np.sum(_portfolio_at(gen, th)[:, :-1] * v, axis=1, keepdims=True)
    return a + sign * (v * v - 2.0 * v * mix)


def geodesic_residual(gen: Generator, curve: Curve, trim: int = 2,
                      richardson: bool = True) -> float:
    """Sup-norm residual of the geodesic equation along a sampled curve.

    Velocities and accelerations come from a cubic spline through the
    sampled points, so the check is independent of how the curve was built
    (stored end velocities, when present, clamp the spline ends).  On a
    uniform power-of-two-plus-one grid the O(step^2) spline truncation is
    removed by Richardson extrapolation against the half-resolution
    subsample, evaluated at their shared interior nodes; pass
    ``richardson=False`` for the raw residual.
    """
    ends = None
    if curve.velocities is not None:
        ends = (curve.velocities[0], curve.velocities[-1])
    m = curve.times.size
    uniform = np.allclose(np.diff(curve.times), curve.times[1] - curve.times[0], rtol=1e-9)
    if not richardson or not uniform or m < 9 or m % 2 == 0:
        ts_eval = curve.times[trim:-trim] if trim else curve.times
        res = _residual_values(gen, curve.times, curve.points, curve.coord, ts_eval, ends)
        return float(np.max(np.abs(res)))
    shared = curve.times[2 * trim : m - 2 * trim : 2]
    res_full = _residual_values(gen, curve.times, curve.points, curve.coord, shared, ends)
    half = slice(0, m, 2)
    res_half = _residual_values(gen, curve.times[half], curve.points[half], curve.coord, shared, ends)
    return float(np.max(np.abs((4.0 * res_full - res_half) / 3.0)))


# ---------------------------------------------------------------------------
# gradient flows

def _primal_flow_rhs(gen, th, th_target):
    """Primal flow velocity theta_dot = (e^{theta_target - theta} - 1) / Z at rows ``th``."""
    return _tilt_gradient(_portfolio_at(gen, th), th_target - th)


def _dual_flow_rhs(gen, th, ph_target):
    """The velocity phi_dot = -(e^{phi - phi_target} - 1) / Z and the dual
    coordinate phi of the dual flow at rows ``th``."""
    Pi = _portfolio_at(gen, th)
    ph = _dual_rows(th, Pi, gen.name)
    return -_tilt_gradient(Pi, ph - ph_target), ph


def _flow(gen: Generator, q, r, horizon: float, steps: int, sign: float) -> Curve:
    """The primal (``sign`` 1) or dual (-1) flow from q toward r: x = e^{sign xi}
    runs on the chord of :func:`_chord_map` with no far end, t(s) = int_0^s Z
    inverted in its u with the weight Z ds/du, velocities from the rhs."""
    t_out = _flow_times(horizon, steps)
    xi, chord, log_rate, grid, theta, _ = _chord(gen, q, r, sign, flow=True)

    def logw(u):
        X = chord(u)
        Th = theta(u, X) if theta else X
        return _log_tilt(_portfolio_at(gen, Th), sign * (xi[1] - X))[:, 0] + log_rate(u)

    u = _reparam_from_weight(logw, grid, t_out, normalized=False)
    pts = chord(u)
    vel = (_primal_flow_rhs(gen, pts, xi[1]) if sign > 0
           else _dual_flow_rhs(gen, theta(u, pts), xi[1])[0])
    return Curve(t_out, pts, "primal" if sign > 0 else "dual", velocities=vel)


def primal_flow(gen: Generator, q, r, horizon: float = 20.0, steps: int = 800) -> Curve:
    """Gradient flow of T(r | .) from q at ``steps + 1`` uniform times: with
    x = e^theta, dx/dt = (x_r - x) / Z, Z = sum_{i<n} pi_i x_{r,i} / x_i + pi_n,
    so x(s) = x_r + (x_q - x_r) e^{-s} with dt/ds = Z (:func:`_flow`)."""
    return _flow(gen, q, r, horizon, steps, 1.0)


def dual_flow(gen: Generator, q, p, horizon: float = 20.0, steps: int = 800) -> Curve:
    """Gradient flow of T(. | p) from q at ``steps + 1`` uniform times, in dual
    coordinates: with y = e^{-phi}, y(s) = y_p + (y_q - y_p) e^{-s} with
    dt/ds = Z = sum_{i<n} pi_i e^{phi_i - phi^p_i} + pi_n (:func:`_flow`)."""
    return _flow(gen, q, p, horizon, steps, -1.0)


def inverse_exp(gen: Generator, q, target, which: str = "primal") -> np.ndarray:
    """Unit initial velocity at q of the geodesic reaching ``target``.

    Proportional to the negative Riemannian gradient of the divergence to
    the target; returned metric-normalized (zero vector if target == q).
    """
    if which not in ("primal", "dual"):
        raise ValueError("which must be 'primal' or 'dual'")
    Th = to_primal_many(point_rows(q, target))
    Pi = _portfolio_at(gen, Th)
    pi_q, dpi_q = Pi[0], gen.dpi_dtheta(Th[0])
    if which == "primal":
        raw = _tilt_gradient(pi_q, Th[1] - Th[0])
        G = _metric_entries(gen, pi_q, dpi_q)
    else:
        ph_q, ph_t = _dual_rows(Th, Pi, gen.name)
        raw = -_tilt_gradient(pi_q, ph_q - ph_t)
        G = _metric_entries(gen, pi_q, dpi_q, _jacobian_from_portfolio(pi_q, dpi_q))
    norm = np.sqrt(max(raw @ G @ raw, 0.0))
    return np.zeros_like(raw) if norm < 1e-15 else raw / norm


# ---------------------------------------------------------------------------
# generalized Pythagorean criterion

@dataclass(frozen=True)
class PythResult:
    """Outcome of the three-point rebalancing comparison at q."""

    gap: float
    inner: float
    angle_deg: float
    sign_quantity: float


def pythagorean_sign(gen: Generator, p, q, r) -> PythResult:
    """Evaluate T(q|p) + T(r|q) - T(r|p) and its two sign surrogates.

    p, q and r are validated once, and the portfolios at p and q are
    evaluated once; from there three separate formulas give the result.
    ``gap`` is the sum of the three Euclidean divergences; ``inner`` is the
    metric inner product at q of the initial velocities of the dual geodesic
    to p and the primal geodesic to r (the Riemannian gradients of T, the
    dual one pulled back by the dual Jacobian); ``sign_quantity`` is the
    closed-form 1 - sum_k Pi_k(q,p) Pi_k(r,q) / pi_k(q) in the two-point
    weights.  All three agree in sign.
    """
    P = point_rows(p, q, r)
    Th = to_primal_many(P)
    th_p, th_q, th_r = Th
    Pi = gen.portfolio(P[:2])
    pi_p, pi_q = Pi
    # the gap: T(q|p), T(r|q) and T(r|p) as rows, from the rows of p, q, r
    logv = gen.log_gen(P)
    to, at = [1, 2, 2], [0, 1, 0]
    T = _t_euclid(gen, P[to], P[at], Pi[at], logv[to], logv[at])
    gap = T[0] + T[1] - T[2]
    # the inner product, in primal coordinates at q
    dpi_q = gen.dpi_dtheta(th_q)
    ph_p, ph_q = _dual_rows(Th[:2], Pi, gen.name)
    u = np.linalg.solve(_jacobian_from_portfolio(pi_q, dpi_q), -_tilt_gradient(pi_q, ph_q - ph_p))
    v = _tilt_gradient(pi_q, th_r - th_q)
    G = _metric_entries(gen, pi_q, dpi_q)
    inner = float(u @ G @ v)
    nu, nv = np.sqrt(max(u @ G @ u, 0.0)), np.sqrt(max(v @ G @ v, 0.0))
    if nu < 1e-15 or nv < 1e-15:
        angle = float("nan")
    else:
        angle = float(np.degrees(np.arccos(np.clip(inner / (nu * nv), -1.0, 1.0))))
    # the sign quantity
    sign_q = 1.0 - float(np.sum(_tilted(pi_p, th_q - th_p) * _tilted(pi_q, th_r - th_q) / pi_q))
    return PythResult(gap=float(gap), inner=inner, angle_deg=angle, sign_quantity=sign_q)


# ---------------------------------------------------------------------------
# the rebalancing region on the 2-simplex

@dataclass
class RegionSample:
    """Classified grid of the region where coarser rebalancing wins."""

    points: np.ndarray       # (N, n) simplex points, p and r appended
    gap: np.ndarray          # T(q|p) + T(r|q) - T(r|p) per point
    in_region: np.ndarray    # gap <= tolerance
    boundary: np.ndarray     # bool mask: sign change among lattice neighbors
    boundary_polyline: np.ndarray  # (M, n) interpolated zero crossings
    resolution: int          # lattice subdivisions per simplex edge


def region_gap(gen: Generator, p, r, Q: np.ndarray) -> np.ndarray:
    """Vectorized gap T(q|p) + T(r|q) - T(r|p) over rows q of Q."""
    pa, ra = point_rows(p, r)
    pi_p = gen.portfolio(pa)
    logv_p = gen.log_gen(pa)
    logv_r = gen.log_gen(ra)
    logv_Q = gen.log_gen(Q)
    t_qp = _t_euclid(gen, Q, pa, pi_p, logv_Q, logv_p)
    t_rq = _t_euclid(gen, ra, Q, gen.portfolio(Q), logv_r, logv_Q)
    t_rp = _t_euclid(gen, ra, pa, pi_p, logv_r, logv_p)
    return t_qp + t_rq - t_rp


def _barycentric_lattice(resolution: int):
    """Interior lattice rows (i, j, k), i + j + k = resolution, i-major order.

    Also returns the index map: ``index_map[i, j]`` is the row of (i, j, .)
    and -1 off the interior, for i, j up to ``resolution``.
    """
    ij = np.arange(resolution + 1)
    inside = (ij[:, None] > 0) & (ij[None, :] > 0) & (ij[:, None] + ij[None, :] < resolution)
    i, j = np.nonzero(inside)
    index_map = np.full(inside.shape, -1)
    index_map[i, j] = np.arange(i.size)
    idx = np.column_stack([i, j, resolution - i - j])
    return idx, idx / resolution, index_map


def region_sample(gen: Generator, p, r, grid_resolution: int = 60) -> RegionSample:
    """Classify a barycentric lattice by the sign of the rebalancing gap.

    Only n = 3 is supported (the lattice lives on the 2-simplex) and
    ``grid_resolution`` must be at least 3, the first with interior lattice
    points; p and r are appended to the sample and always classify as
    boundary points since their gap vanishes identically.  Boundary lattice
    points are those with a sign change toward some lattice neighbor; the
    polyline refines the crossing by linear interpolation along lattice
    edges, one row per crossing edge, ordered by lattice point and then by
    the edge directions (1, 0), (0, 1), (1, -1).
    """
    if grid_resolution < 3:
        raise ValueError(f"grid_resolution must be at least 3, got {grid_resolution}")
    pa, ra = point_rows(p, r)
    if pa.size != 3:
        raise ValueError("region sampling draws on the 2-simplex: need n = 3")
    idx, Q, index_map = _barycentric_lattice(grid_resolution)
    gaps = region_gap(gen, pa, ra, Q)
    in_region = gaps <= 1e-12
    # neighbours of each point along the three edge directions, -1 if none
    nbr = index_map[idx[:, :1] + [1, 0, 1], idx[:, 1:2] + [0, 1, -1]]
    g1, g2 = gaps[:, None], gaps[nbr]
    crossing = (nbr >= 0) & (((g1 <= 0) & (g2 > 0)) | ((g2 <= 0) & (g1 > 0)))
    k, d = np.nonzero(crossing)
    k2 = nbr[k, d]
    boundary = np.zeros(Q.shape[0], dtype=bool)
    boundary[k] = boundary[k2] = True
    apart = gaps[k] != gaps[k2]
    k, k2 = k[apart], k2[apart]
    lam = gaps[k] / (gaps[k] - gaps[k2])
    poly = Q[k] + lam[:, None] * (Q[k2] - Q[k])
    # p and r always lie on the boundary of the region (their gap is zero)
    extra = np.array([pa, ra])
    extra_gap = region_gap(gen, pa, ra, extra)
    points = np.vstack([Q, extra])
    gaps = np.concatenate([gaps, extra_gap])
    in_region = np.concatenate([in_region, np.abs(extra_gap) <= 1e-9])
    boundary = np.concatenate([boundary, np.abs(extra_gap) <= 1e-9])
    return RegionSample(points=points, gap=gaps, in_region=in_region,
                        boundary=boundary, boundary_polyline=poly,
                        resolution=grid_resolution)
