"""Primal and dual geodesics, gradient flows, and the right-angle criterion.

Primal geodesics trace Euclidean straight lines on the simplex; dual
geodesics trace straight lines in dual Euclidean coordinates.  In
exponential coordinates the primal geodesic from q to r is

    theta_k(t) = log((1 - h) e^{theta^q_k} + h e^{theta^r_k}),

where the reparameterization h(t) solves h'' = 2 (h')^2 d/dh f(theta(h)),
equivalently h'(t) proportional to exp(2 f(theta(t))).  That first-order
reduction separates, so h is computed here by quadrature of
exp(-2 f(theta(h))) and monotone inversion rather than by shooting; the
dual geodesic is handled identically with f* and reciprocal coordinates.
Without a closed form, its inverse dual images and those of the dual flow
come from a continuation along the chord: each batched Newton solve starts
from an interpolant through the rows already solved.
The log weight is one array function of the chord parameter for both
geodesics and the exponential map, which follows the same chords from a
point and an initial velocity and names the exact time at which one leaves
the simplex.  The quadrature table is refined under an error estimate
(adaptive Gauss quadrature, Gander & Gautschi 2000), and each of its levels
and each Newton step of the polish of h(t) evaluate the weight on all their
points at once, as the dual range guard and the geodesic-equation residual
do with their nodes.  A polished time retires after the first Newton step
whose quadratic term bounds the residual left below the stop, so most take
one step.

Gradient flows of T(r | .) and T(. | p) retrace the same geodesics up to a
time change, which yields inverse exponential maps for free.  On the chord
s -> x_r + (x_q - x_r) e^{-s} (x = e^theta, or e^{-phi} for the dual flow)
the flow time is t(s) = int_0^s Z, inverted at uniform times by the same
chord quadrature as the geodesics, unnormalized.  The sign of
T(q|p) + T(r|q) - T(r|p) is the sign of the Riemannian angle defect at q
between the two geodesics; `pythagorean_sign` evaluates the gap, the
actual metric inner product, and the equivalent algebraic sign quantity
through three independent code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

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
_DEPTH = 16         # halvings of a table interval at most
_FLOW_DU = 0.08     # flow grid spacing in log of the weight's length scale
_COARSE = 32        # stride of the grid nodes that a chord inverse solves cold
_CHORD = 1025       # uniform grid of a geodesic's dual chord: its cold nodes and row cap


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


def _log_mix(s: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log((1-s) e^a + s e^b) elementwise over a grid s, overflow-safe."""
    s = s[:, None]
    out = np.empty((s.size, a.size))
    interior = (s[:, 0] > 0) & (s[:, 0] < 1)
    out[s[:, 0] <= 0] = a
    out[s[:, 0] >= 1] = b
    si = s[interior]
    out[interior] = np.logaddexp(np.log1p(-si) + a, np.log(si) + b)
    return out


# 5-point Gauss-Legendre rule on [-1, 1]
_GL_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                  0.5384693101056831, 0.906179845938664])
_GL_W = np.array([0.23692688505618908, 0.47862867049936647, 0.5688888888888889,
                  0.47862867049936647, 0.23692688505618908])


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
    """Invert the time t(s) = int_0^s w along a chord, where w = exp(logw).

    ``logw`` maps an array of chord parameters to the log weight at each.
    The t(s) table is adaptive: from about ``_TABLE`` intervals of the grid
    ``s_dense``, each level evaluates the weight once on the 5-point Gauss
    nodes of every open interval and of its two halves, accepts an interval
    when the two estimates agree to 1e-14 of the running total, and splits
    the others, at most ``_DEPTH`` times.  Each accepted interval enters the
    table as its two halves.  All interior output times then start from the
    cubic Hermite interpolant of s(t) through the breakpoints (ds/dt = W / w)
    and are polished together by at most four Newton steps, each anchored at
    the breakpoint below its time.  With the stop tol = 1e-15 max(1, t), a
    row retires once its residual |F| at the start of a step is below tol,
    or after an unclipped step d with k (w / W) d^2 below tol, where k is 8
    times the steepest secant of log w over the row's table interval and its
    two neighbours.  That bounds the residual the step leaves, Newton's
    quadratic term |F''| d^2 / 2 = |d log w / ds| (w / W) d^2 / 2, for
    |d log w / ds| up to 16 such secants, so most rows take one step.
    Pointwise accuracy near machine precision keeps spline-based residual
    oracles meaningful.

    ``normalized`` (geodesics): s is h in [0, 1] and t(1) = 1; returns h and
    dh/dt at the output times.  Otherwise (flows) t is the flow time, which
    grows linearly past the end of the grid; returns s at the output times.
    """
    grid = s_dense[np.unique(np.linspace(0, s_dense.size - 1, _TABLE + 1).astype(int))]
    a, b = grid[:-1], grid[1:]
    shift, done, parts = -np.inf, 0.0, []  # parts: left ends, integrals and shift of halves
    for depth in range(_DEPTH + 1):
        m = (a + b) / 2
        nodes, half = _gl_nodes(np.hstack((a, a, m)), np.hstack((b, m, b)))
        lw = logw(nodes).reshape(3, -1, _GL_X.size)
        new = max(shift, lw.max())  # rescale what is accepted so that exp never overflows
        done, shift = done * np.exp(shift - new), new
        whole, left, right = np.exp(lw - shift) @ _GL_W * half.reshape(3, -1)
        # NaN is accepted, so that it reaches the output instead of splitting forever
        ok = ~(np.abs(whole - left - right) > 1e-14 * (done + (left + right).sum()))
        ok |= depth == _DEPTH
        parts.append((np.hstack((a[ok], m[ok])), np.hstack((left[ok], right[ok])), shift))
        done += parts[-1][1].sum()
        a, b = np.hstack((a[~ok], m[~ok])), np.hstack((m[~ok], b[~ok]))
        if a.size == 0:
            break
    S = np.concatenate([p[0] for p in parts])
    order = np.argsort(S)
    seg = np.concatenate([p[1] * np.exp(p[2] - shift) for p in parts])[order]
    S, cum = np.append(S[order], grid[-1]), np.append(0.0, np.cumsum(seg))
    w = lambda x: np.exp(logw(x) - shift)
    W = cum[-1] if normalized else np.exp(-shift)
    log_w = logw(S) - shift
    t_of_s, slope = cum / W, W / np.exp(log_w)  # slope: ds/dt at the breakpoints
    # per interval: 8 times the steepest secant of log w on it and its neighbours
    secant = np.abs(np.diff(log_w)) / np.diff(S)
    kappa = 8.0 * np.fmax(secant, np.fmax(np.r_[secant[:1], secant[:-1]],
                                          np.r_[secant[1:], secant[-1:]]))
    t_end = t_of_s[-1]
    h = np.zeros_like(t_out)
    tail = t_out >= t_end
    h[tail] = S[-1] if normalized else S[-1] + (t_out[tail] - t_end) * slope[-1]
    rows = np.flatnonzero((t_out > 0.0) & ~tail)
    j = np.clip(np.searchsorted(t_of_s, t_out[rows]) - 1, 0, S.size - 2)
    anchor_s, anchor_t, t_star, k = S[j], cum[j], t_out[rows], kappa[j]
    d = t_of_s[j + 1] - t_of_s[j]
    u, ds, m0, m1 = (t_star - t_of_s[j]) / d, S[j + 1] - anchor_s, slope[j] * d, slope[j + 1] * d
    x = anchor_s + u * (m0 + u * (3 * ds - 2 * m0 - m1 + u * (m0 + m1 - 2 * ds)))
    x = np.fmin(np.fmax(x, anchor_s), S[j + 1])  # inside the bracket; NaN falls to its start
    h[rows] = x
    lo, hi = S[0] + 1e-15, S[-1] - 1e-15
    for _ in range(4):
        if rows.size == 0:
            break
        F = (anchor_t + _gauss_segment(w, anchor_s, x)) / W - t_star
        dF = w(x) / W
        newton = x - F / dF
        x = np.clip(newton, lo, hi)
        h[rows] = x
        tol = 1e-15 * np.maximum(1.0, t_star)
        # an unclipped step d leaves about F'' d^2 / 2 = (d log w / ds) F' d^2 / 2,
        # which k F' d^2 bounds; a NaN row is never converged here
        converged = (x == newton) & (k * dF * (F / dF) ** 2 < tol)
        active = (np.abs(F) >= tol) & ~converged
        rows, anchor_s, anchor_t, t_star, x, k = (
            rows[active], anchor_s[active], anchor_t[active], t_star[active], x[active], k[active]
        )
    return (h, W / w(h)) if normalized else h


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
    inverse dual images ``theta(s, Ph)`` (:func:`_chord_inverse`), as an
    array function of the chord parameter."""
    if theta is None:
        return lambda s: -2.0 * f_value(gen, chord(s))

    def logw(s):
        # f*(phi) = psi(theta - phi) - f(theta) at theta = inverse dual image
        Ph = chord(s)
        Th = theta(s, Ph)
        return -2.0 * (psi_many(Th - Ph) - f_value(gen, Th))

    return logw


def primal_geodesic(gen: Generator, q, r, grid=None) -> Curve:
    """Geodesic of the primal connection from q to r on [0, 1].

    The Euclidean trace is the straight segment [q, r]; the affine
    parameterization comes from adaptive quadrature of exp(-2 f) along the
    segment (:func:`_reparam_from_weight`), accurate to rounding also on
    chords whose ends differ by orders of magnitude.
    """
    t_out = _grid(grid)
    th_q, th_r = to_primal_many(point_rows(q, r))
    if np.allclose(th_q, th_r, atol=1e-14):
        pts = np.broadcast_to(th_q, (t_out.size, th_q.size)).copy()
        return Curve(t_out, pts, "primal", velocities=np.zeros_like(pts))
    chord = lambda h: _log_mix(h, th_q, th_r)
    grid = np.linspace(0.0, 1.0, _TABLE + 1)
    h, dh_dt = _reparam_from_weight(_geodesic_log_weight(gen, chord), grid, t_out)
    pts = chord(h)
    # theta_dot_k = h'(t) (e^{theta^r_k} - e^{theta^q_k}) / A_k(h)
    B = np.exp(th_r) - np.exp(th_q)
    vel = dh_dt[:, None] * B[None, :] / np.exp(pts)
    return Curve(t_out, pts, "primal", velocities=vel)


def dual_geodesic(gen: Generator, q, p, grid=None, check_range: bool = True) -> Curve:
    """Geodesic of the dual connection from q to p on [0, 1].

    The dual Euclidean trace is the straight segment between the dual
    Euclidean images of q and p.  Along the way the curve must stay inside
    the range of the dual coordinate map; with ``check_range`` the Fenchel
    equality is re-verified through the conjugate minimization at every
    output node, all nodes at once (:func:`_dual_range_guard`).  h(t) comes
    from adaptive quadrature of exp(-2 f*) as for the primal geodesic; its
    table, polish, dh/dt and range guard start from :func:`_chord_inverse`.
    """
    t_out = _grid(grid)
    Th = to_primal_many(point_rows(q, p))
    ph_q, ph_p = _dual_rows(Th, _portfolio_at(gen, Th), gen.name)
    if np.allclose(ph_q, ph_p, atol=1e-14):
        pts = np.broadcast_to(ph_q, (t_out.size, ph_q.size)).copy()
        return Curve(t_out, pts, "dual", velocities=np.zeros_like(pts))
    chord = lambda h: -_log_mix(h, -ph_q, -ph_p)
    grid = np.linspace(0.0, 1.0, _CHORD)
    theta, start = _chord_inverse(gen, chord, grid)
    h, dh_dt = _reparam_from_weight(_geodesic_log_weight(gen, chord, theta), grid, t_out)
    pts = chord(h)
    D = np.exp(-ph_p) - np.exp(-ph_q)
    vel = -dh_dt[:, None] * D[None, :] * np.exp(pts)
    curve = Curve(t_out, pts, "dual", velocities=vel)
    if check_range:
        _dual_range_guard(gen, curve, start(h))
    return curve


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

def _flow_chord(s: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(e^{-s} e^a + (1 - e^{-s}) e^b) elementwise over a grid s >= 0."""
    s = s[:, None]
    with np.errstate(divide="ignore"):  # log(0) at s = 0, where the mix is a
        return np.logaddexp(a - s, np.log(-np.expm1(-s)) + b)


def _flow_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense chord parameters s of a flow from e^a toward e^b.

    Uniform in log l(s), l(s) = (1 + l0) e^s - 1 the distance to the zero of
    the nearest growing component (l0 = min x_a / (x_b - x_a), at most 1), so
    geometric near s = 0, where the weight is steepest, and uniform in s
    later; it ends where e^{-s} |e^a - e^b| is below rounding of e^b.
    """
    d = b - a
    with np.errstate(divide="ignore"):  # log 0 where d = 0
        log_em1 = np.abs(d) + np.log(-np.expm1(-np.abs(d)))  # log(e^|d| - 1)
    log_l0 = -np.max(log_em1[d > 0], initial=0.0)
    end = max(np.max(log_em1 - np.maximum(d, 0.0)) - math.log(np.finfo(float).eps), 1.0)
    l0 = math.exp(log_l0)
    u_end = end + math.log1p(l0 - math.exp(-end))
    u = np.linspace(log_l0, u_end, math.ceil((u_end - log_l0) / _FLOW_DU) + 1)
    s = np.logaddexp(0.0, u) - math.log1p(l0)
    s[0] = 0.0
    return s


def _primal_flow_rhs(gen, th, th_target):
    """Primal flow velocity theta_dot = (e^{theta_target - theta} - 1) / Z at rows ``th``."""
    return _tilt_gradient(_portfolio_at(gen, th), th_target - th)


def _dual_flow_rhs(gen, th, ph_target):
    """The velocity phi_dot = -(e^{phi - phi_target} - 1) / Z and the dual
    coordinate phi of the dual flow at rows ``th``."""
    Pi = _portfolio_at(gen, th)
    ph = _dual_rows(th, Pi, gen.name)
    return -_tilt_gradient(Pi, ph - ph_target), ph


def primal_flow(gen: Generator, q, r, horizon: float = 20.0, steps: int = 800) -> Curve:
    """Gradient flow of T(r | .) from q at ``steps + 1`` uniform times.

    A time change of the primal geodesic: with x = e^theta the flow is
    dx/dt = (x_r - x) / Z with Z = sum_{i<n} pi_i x_{r,i} / x_i + pi_n, so
    x(s) = x_r + (x_q - x_r) e^{-s} and dt/ds = Z.  The times t(s) come from
    the chord quadrature of :func:`_reparam_from_weight`; the velocities are
    the right-hand side at the returned points.
    """
    t_out = _flow_times(horizon, steps)
    th_q, th_r = to_primal_many(point_rows(q, r))

    def logw(s):
        Th = _flow_chord(s, th_q, th_r)
        return _log_tilt(_portfolio_at(gen, Th), th_r - Th)[:, 0]

    s = _reparam_from_weight(logw, _flow_grid(th_q, th_r), t_out, normalized=False)
    pts = _flow_chord(s, th_q, th_r)
    return Curve(t_out, pts, "primal", velocities=_primal_flow_rhs(gen, pts, th_r))


def dual_flow(gen: Generator, q, p, horizon: float = 20.0, steps: int = 800) -> Curve:
    """Gradient flow of T(. | p) from q at ``steps + 1`` uniform times, in dual coordinates.

    A time change of the dual geodesic: with y = e^{-phi},
    y(s) = y_p + (y_q - y_p) e^{-s} and dt/ds = Z with
    Z = sum_{i<n} pi_i e^{phi_i - phi^p_i} + pi_n, pi taken at the inverse
    dual image from :func:`_chord_inverse`, as for the dual geodesic.
    """
    t_out = _flow_times(horizon, steps)
    Th = to_primal_many(point_rows(q, p))
    ph_q, ph_p = _dual_rows(Th, _portfolio_at(gen, Th), gen.name)
    chord = lambda s: -_flow_chord(s, -ph_q, -ph_p)
    grid = _flow_grid(-ph_q, -ph_p)
    theta, _ = _chord_inverse(gen, chord, grid)

    def logw(s):
        Ph = chord(s)
        return _log_tilt(_portfolio_at(gen, theta(s, Ph)), Ph - ph_p)[:, 0]

    s = _reparam_from_weight(logw, grid, t_out, normalized=False)
    pts = chord(s)
    vel, _ = _dual_flow_rhs(gen, theta(s, pts), ph_p)
    return Curve(t_out, pts, "dual", velocities=vel)


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
