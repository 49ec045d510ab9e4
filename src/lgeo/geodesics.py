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
already solved, and the range guard from the rows solved at the output
times.  The exponential map follows the same chords from a point and a
velocity and names the exact time at which one leaves the simplex.  The
quadrature table on a chord's span is refined under an error estimate until
it converges (adaptive Gauss quadrature, Gander & Gautschi 2000), and each
of its levels evaluates the weight at once, at the nodes of one 10-point
Gauss rule.  The weight at the nodes of each table half is also a Legendre
series on that half, whose integral Newton inverts at the output times, so
no weight is evaluated after the table.

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
from .divergence import _inverse, _ratios, _t_euclid
from .generators import (
    Generator,
    _check_interior,
    _dual_rows,
    _portfolio_at,
)
from .geometry import _jacobian_from_portfolio, _jacobian_solve, _metric_entries, _tilt_gradient
from .simplex import (
    _as_vector,
    _f_rows,
    _fstar_rows,
    _log_tilt,
    coord_rows,
    from_primal_many,
    point_rows,
    row_sum,
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
_TABLE = 16         # uniform intervals of the span that a chord quadrature table starts from
_SOLVED = 1025      # the most solved rows that a chord inverse keeps


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
        t = self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if t.ndim != 1 or not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
            raise ValueError("curve times must be finite and strictly increasing")
        if self.points.shape[0] != self.times.size:
            raise ValueError("one point per time stamp required")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("curve points must be finite")
        if self.velocities is not None:
            self.velocities = np.asarray(self.velocities, dtype=float)
            if self.velocities.shape != self.points.shape:
                raise ValueError(f"velocities of shape {self.velocities.shape} "
                                 f"at points of shape {self.points.shape}")

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
    least 2), or at least 2 finite, strictly increasing times in [0, 1]."""
    if grid is None:
        return np.linspace(0.0, 1.0, DEFAULT_GRID)
    if np.isscalar(grid):
        if int(grid) < 2:
            raise ValueError(f"a grid needs at least 2 times, got {grid}")
        return np.linspace(0.0, 1.0, int(grid))
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or not (np.all(np.diff(g) > 0) and g[0] >= 0 and g[-1] <= 1):
        raise ValueError("grid must be at least 2 finite, strictly increasing times inside [0, 1]")
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


def _chord_map(xi: np.ndarray, sign: float, flow: bool = False):
    """The chord from e^a toward e^b, (a, b) = ``sign`` xi, in the parameter
    u = log((l_a + tau) / (l_b + 1 - tau)), l = min_k x_k / |x_b,k - x_a,k|
    (at most 1) at each end being the scale over which the weights change
    there: geometric in tau (1 - tau) down to that scale, and finite at the
    ends, where u - u_a and u_b - u keep the precision of the chord's rows.  A flow has no far end, l_b = 0, and
    1 - tau = e^-s, s = log1p(e^u) - log1p(l_a).  Returns the map from u to
    the rows ``sign`` log((1 - tau) e^a + tau e^b), exact at the ends, and
    log dtau/du (log ds/du for a flow), both from one softplus of u; and
    the span [u_a, u_b] of u, or for a flow [u_a, u] with u where
    e^-s |x_b - x_a| rounds away (s at least 1).
    """
    a, b = sign * xi
    d = b - a
    with np.errstate(divide="ignore"):  # log 0 where d = 0
        log_em1 = np.log(-np.expm1(-np.abs(d)))  # log |expm1(d)| - max(d, 0)
    log_la = min(-np.max(log_em1 + np.maximum(d, 0.0)), 0.0)
    log_lb = -np.max(log_em1 + np.maximum(-d, 0.0))  # before its cap at 0
    la, lb = math.exp(log_la), 0.0 if flow else math.exp(min(log_lb, 0.0))
    u_a, u_b = log_la - math.log1p(lb), math.log1p(la) - min(log_lb, 0.0) if lb else math.inf
    s_end = max(-log_lb - math.log(np.finfo(float).eps), 1.0)
    log_scale = math.log(1.0 + la + lb)

    def line(u):
        soft = _softplus(u)
        log_sigmoid = u - soft
        with np.errstate(divide="ignore"):  # log 0 at an end
            log_tau = log_sigmoid + math.log1p(lb) + np.log(-np.expm1(u_a - u))
            log_rest = math.log1p(la) - soft
            if lb:
                log_rest += np.log(-np.expm1(u - u_b))
        x, y = log_rest[:, None] + a, log_tau[:, None] + b
        if u.min() <= u_a or u.max() >= u_b:
            # at an end one of tau and 1 - tau is 0, and the other is exactly 1
            x[log_tau == -np.inf], y[log_rest == -np.inf] = a, b
        top = np.maximum(x, y)  # then log(e^x + e^y), faster than np.logaddexp
        rows = sign * (top + np.log1p(np.exp(np.minimum(x, y) - top)))
        return rows, log_sigmoid if flow else log_scale + u - 2.0 * soft

    return line, np.array([u_a, s_end + math.log1p(la - math.exp(-s_end)) if flow else u_b])


# 10-point Gauss-Legendre rule on [-1, 1], the rule of the quadrature table
# and the nodes of each table half's series
_GL10_X = np.array([0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
                    0.8650633666889845, 0.9739065285171717])
_GL10_X = np.concatenate((-_GL10_X[::-1], _GL10_X))
_GL10_W = np.array([0.2955242247147528, 0.2692667193099965, 0.219086362515982,
                    0.1494513491505804, 0.06667134430868814])
_GL10_W = np.concatenate((_GL10_W[::-1], _GL10_W))


def _legendre_rise(d: np.ndarray, k: int) -> np.ndarray:
    """P_m(d - 1) - P_m(-1) for m < ``k``, as the rows of a (k, d.size)
    array: the three-term recurrence of the Legendre polynomials shifted to
    xi = -1, where P_m(-1) = (-1)^m, so that a small d keeps its precision."""
    Q = np.empty((k, d.size))
    Q[0], Q[1] = 0.0, d
    xi, signed = d - 1.0, (d, -d)
    for m in range(1, k - 1):
        Q[m + 1] = ((2 * m + 1) / (m + 1)) * (xi * Q[m] + signed[m % 2]) - (m / (m + 1)) * Q[m - 1]
    return Q


# P_m(-1), the discrete orthogonal transform from the weight at the 10 nodes
# to the Legendre coefficients of its interpolant, and the map from the
# weight there to the 11 coefficients of its integral from -1, by
# int P_m = (P_m+1 - P_m-1) / (2m + 1) and int P_0 = P_0 + P_1
_P_LEFT = (-1.0) ** np.arange(11)
_LEG = ((np.arange(10) + 0.5)[:, None] * _GL10_W
        * (_legendre_rise(_GL10_X + 1.0, 10) + _P_LEFT[:10, None]))
_LEG_INT = np.zeros((11, 10))
_LEG_INT[np.arange(1, 11), np.arange(10)] = 1.0 / (2 * np.arange(10) + 1)
_LEG_INT[np.arange(9), np.arange(1, 10)] -= 1.0 / (2 * np.arange(1, 10) + 1)
_LEG_INT[0, 0] = 1.0
_LEG_INT = _LEG_INT @ _LEG
_LEFT_HALF = _legendre_rise(np.ones(1), 11)[:, 0] @ _LEG_INT  # that integral at xi = 0
_NEWTON_STEPS = 6   # at most, on a half's series; the curves stop after 2 or 3


def _gauss_segment(logw, a: np.ndarray, b: np.ndarray):
    """The half widths of the intervals [a_i, b_i], and ``logw`` at their
    10 Gauss nodes, one row of 10 per interval, from one call of ``logw``."""
    mid, half = (a + b) / 2, (b - a) / 2
    return half, logw((mid[:, None] + half[:, None] * _GL10_X).ravel()).reshape(-1, _GL10_X.size)


def _reparam_from_weight(logw, span: np.ndarray, t_out: np.ndarray, normalized: bool = True):
    """Invert the time t(s) = int w along a chord from ``span[0]``, where
    w = exp(logw), and ``logw`` maps an array of chord parameters to log w.

    The t(s) table is adaptive (Gander & Gautschi 2000): from ``_TABLE``
    uniform intervals of ``span``, each level evaluates w once,
    by :func:`_gauss_segment`, at the 10-point Gauss nodes of every open
    interval and of its two halves.  The discrete orthogonal transform makes
    w at an interval's nodes a Legendre series in its xi in [-1, 1]
    (Trefethen 2013, "Approximation Theory and Approximation Practice",
    ch. 15-19).  An interval is accepted when its series predicts the
    integrals of both halves to 3e-15 of the running total (the whole
    against the sum of the halves alone lets the series be off inside), or
    its halves are no longer distinct floats; the others split.  It enters
    the table as its two halves with w at their nodes, which give both the
    table's times cum and each half's series: no weight is evaluated after
    the table.  Each output time t solves
    F = cum + R int_{-1}^{xi} series - t W = 0, R the half width, by Newton
    from the linear start on the half, clipped to [-1, 1], until
    |F| <= 1e-15 max(1, t) W on every row or for ``_NEWTON_STEPS`` steps;
    dF/dxi is R times the series.  The integral is summed in the
    P_m(xi) - P_m(-1), precise near xi = -1.
    Returns s at the output times and log W, W the integral of w over
    ``span``.  ``normalized`` (geodesics): t(span[-1]) = 1.  Otherwise
    (flows) t is the integral itself and grows linearly past the span.
    """
    grid = np.linspace(span[0], span[-1], _TABLE + 1)
    a, b = grid[:-1], grid[1:]
    shift, done, parts = -np.inf, 0.0, []  # parts: accepted intervals, log w at their halves' nodes
    while a.size:
        m = (a + b) / 2
        half, lw = _gauss_segment(logw, np.hstack((a, a, m)), np.hstack((b, m, b)))
        lw = lw.reshape(3, -1, _GL10_X.size)
        new = max(shift, lw.max())  # rescale what is accepted so that exp never overflows
        done, shift = done * np.exp(shift - new), new
        w = np.exp(lw - shift)
        whole, left, right = w @ _GL10_W * half.reshape(3, -1)
        P = w[0] @ _LEFT_HALF * half[:a.size]  # the left half by the whole interval's series
        # NaN is accepted, so that it reaches the output instead of splitting forever
        ok = ~(np.abs(P - left) + np.abs(whole - P - right) > 3e-15 * (done + (left + right).sum()))
        ok |= (a == m) | (m == b)
        parts.append((a[ok], b[ok], lw[1:, ok].transpose(1, 0, 2)))
        done += (left[ok] + right[ok]).sum()
        a, b = np.hstack((a[~ok], m[~ok])), np.hstack((m[~ok], b[~ok]))
    order = np.argsort(np.concatenate([p[0] for p in parts]))
    a, b, lw = (np.concatenate(p)[order] for p in zip(*parts))
    values = np.exp(lw.reshape(-1, _GL10_X.size) - shift)  # w at the nodes, one row per half
    S = np.append(np.column_stack((a, (a + b) / 2)), b[-1])
    rad = np.diff(S) / 2
    halves = rad * (values @ _GL10_W)
    # prefix sums with the rounding of each step added back (TwoSum; Ogita, Rump & Oishi 2005)
    cum = np.cumsum(halves)
    prev = np.append(0.0, cum[:-1])
    z = cum - prev
    cum = np.append(0.0, cum + np.cumsum((prev - (cum - z)) + (halves - z)))
    W = cum[-1] if normalized else np.exp(-shift)
    t_of_s, t_end = cum / W, cum[-1] / W
    log_total = math.log(cum[-1]) + shift
    h = np.full_like(t_out, S[0])
    tail = t_out >= t_end
    h[tail] = S[-1] if normalized else S[-1] + (t_out[tail] - t_end) * W / values[-1, -1]
    rows = np.flatnonzero((t_out > 0.0) & ~tail)
    if rows.size == 0:
        return h, log_total
    t_star = t_out[rows]
    j = np.clip(np.searchsorted(t_of_s, t_star) - 1, 0, S.size - 2)  # the half below
    # R w and R int_{-1}^{xi} w in the P_m(xi) - P_m(-1), and R w(-1)
    series, integral = _LEG @ values[j].T * rad[j], _LEG_INT @ values[j].T * rad[j]
    left = _P_LEFT[:10] @ series
    target, tol = t_star * W - cum[j], 1e-15 * np.maximum(1.0, t_star) * W
    d = 2.0 * (t_star - t_of_s[j]) / (t_of_s[j + 1] - t_of_s[j])  # 1 + xi, linear on the half
    for _ in range(_NEWTON_STEPS):
        Q = _legendre_rise(d, 11)
        F = np.einsum("kr,kr->r", Q, integral) - target
        if np.all(np.abs(F) <= tol):
            break
        d = np.clip(d - F / (np.einsum("kr,kr->r", Q[:10], series) + left), 0.0, 2.0)
    h[rows] = S[j] + rad[j] * d
    return h, log_total


def _chord_inverse(gen: Generator, chord, span: np.ndarray):
    """The inverse dual map ``theta(s, Ph)`` of rows ``Ph = chord(s)`` on a
    dual chord.  33 uniform nodes of ``span`` are solved cold.  Each
    call is then a predictor-corrector step of a continuation (Allgower &
    Georg 2003): batched Newton from the Lagrange interpolant through the six
    nearest solved rows, clipped to their range.  Its rows join the solved
    rows, thinned evenly in s to at most ``_SOLVED``; a row at a kept s
    starts at its solution.  With a closed form, ``theta`` is that form."""
    if gen.dual_map_inverse(chord(span[:1])) is not None:
        return lambda s, Ph: _inverse(gen, Ph)
    S = np.linspace(span[0], span[-1], 33)
    Th = _inverse(gen, chord(S))  # the solved rows, by increasing s

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
        th = _inverse(gen, Ph, start(s))
        S, first = np.unique(np.concatenate((S, s)), return_index=True)
        keep = np.linspace(0, S.size - 1, min(S.size, _SOLVED)).round().astype(int)
        S, Th = S[keep], np.concatenate((Th, th))[first[keep]]
        return th

    return theta


def _log_weight(gen: Generator, rows: np.ndarray, Th: np.ndarray | None) -> np.ndarray:
    """The log weight of a geodesic: -2 f at primal ``rows``, or -2 f* at
    dual ``rows`` whose inverse dual images are ``Th``."""
    return -2.0 * (_f_rows(gen, rows) if Th is None else _fstar_rows(gen, Th, rows))


def _chord(gen: Generator, q, r, sign: float, flow: bool = False):
    """The theta (``sign`` 1) or phi (-1) rows xi of q and r, the chord
    u -> xi, the chord with its log rate, u -> (xi, log rate), and its span
    (:func:`_chord_map`), and ``theta(u, rows)``: for phi rows the inverse
    dual map of :func:`_chord_inverse`, for theta rows None."""
    Th = to_primal_many(point_rows(q, r, gen=gen))
    xi = Th if sign > 0 else _dual_rows(Th, _portfolio_at(gen, Th), gen.name)
    rated, span = _chord_map(xi, sign, flow)
    chord = lambda u: rated(u)[0]
    theta = _chord_inverse(gen, chord, span) if sign < 0 else lambda u, rows: None
    return xi, chord, rated, span, theta


def _geodesic(gen: Generator, q, r, grid, sign: float) -> Curve:
    """The primal (``sign`` 1) or dual (-1) geodesic from q to r: x = e^{sign xi}
    runs straight at tau(t), dt/dtau proportional to exp(-2 F), F = f or f*,
    inverted in the u of :func:`_chord_map` with the weight exp(-2 F) dtau/du."""
    t_out = _grid(grid)
    coord = "primal" if sign > 0 else "dual"
    xi, chord, rated, span, theta = _chord(gen, q, r, sign)
    if np.allclose(xi[0], xi[1], atol=1e-14):
        pts = np.broadcast_to(xi[0], (t_out.size, xi.shape[1])).copy()
        return Curve(t_out, pts, coord, velocities=np.zeros_like(pts))

    def weight(u):
        rows, log_rate = rated(u)
        return _log_weight(gen, rows, theta(u, rows)) + log_rate

    u, log_total = _reparam_from_weight(weight, span, t_out)
    pts = chord(u)
    Th = theta(u, pts)
    # xi_dot_k = sign tau'(t) (x_r,k - x_q,k) / x_k, with tau'(t) = W exp(2 F)
    x_q, x_r = np.exp(sign * xi)
    tau_rate = np.exp(log_total - _log_weight(gen, pts, Th))[:, None]
    vel = sign * tau_rate * (x_r - x_q) * np.exp(-sign * pts)
    curve = Curve(t_out, pts, coord, velocities=vel)
    if Th is not None:
        _dual_range_guard(gen, curve, Th)
    return curve


def primal_geodesic(gen: Generator, q, r, grid=None) -> Curve:
    """Geodesic of the primal connection from q to r on [0, 1].

    The Euclidean trace is the straight segment [q, r]; the affine
    parameterization comes from adaptive quadrature of exp(-2 f) along it,
    accurate to rounding also near a face of the simplex (:func:`_geodesic`).
    """
    return _geodesic(gen, q, r, grid, 1.0)


def dual_geodesic(gen: Generator, q, p, grid=None) -> Curve:
    """Geodesic of the dual connection from q to p on [0, 1].

    The dual Euclidean trace is the straight segment between the dual
    Euclidean images of q and p.  Along the way the curve must stay inside
    the range of the dual coordinate map: the Fenchel equality is
    re-verified through the conjugate minimization at every output node,
    all nodes at once (:func:`_dual_range_guard`).  h(t) comes from
    adaptive quadrature of exp(-2 f*) as for the primal geodesic.
    """
    return _geodesic(gen, q, p, grid, -1.0)


def _dual_range_guard(gen, curve, Th0):
    """Re-verify the Fenchel equality at every output node of a dual curve.

    All nodes at once: one batched conjugate minimization started at
    ``Th0``, the inverse dual images of the curve points that the curve
    solved for its velocities, and the gap f(theta) + f*(phi) -
    psi(theta - phi) at ``Th0`` against 1e-6.  Raises
    :class:`DualRangeError` at the first output time whose row fails to
    converge or breaks the bound.
    """
    Ph = curve.points
    Th, _, ok = divergence._newton_max_u(gen, Ph, Th0)
    gap = np.abs(_fstar_rows(gen, Th, Ph) - _fstar_rows(gen, Th0, Ph))
    bad = np.flatnonzero(~ok | ~(gap <= 1e-6))
    if bad.size:
        first, t = bad[0], curve.times[bad[0]]
        if ok[first]:
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
    geometric near both ends.  The reach in u doubles until a fixed Gauss
    sum puts t past ``t_end``, from the power of two at least a t_end (t is
    about u / a for small u) or 1 if less, so that the quadrature table
    spans the curve at a small velocity too; :func:`_reparam_from_weight`
    then inverts the times on the same weight (one :func:`_chord_inverse`
    per reach).  Raises :class:`GeodesicBlowupError` if the chord reaches
    the simplex boundary (u = ``_REACH``) first, naming the exit time t*,
    the table's total; ``last_valid_t`` is the last output time before it.
    Dual curves go through :func:`_dual_range_guard`.
    """
    if which not in ("primal", "dual"):
        raise ValueError("which must be 'primal' or 'dual'")
    times = _flow_times(t_end, steps)
    xi, v = coord_rows(xi0, gen=gen)[0], _as_vector(v0, "velocity")
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

    def log_rate(span):
        """u -> (rows, inverse dual images or None, -2 F), -2 F(0) and log dt/du on ``span``."""
        theta = _chord_inverse(gen, chord, span) if which == "dual" else lambda u, rows: None

        def at(u):
            rows = chord(u)
            Th = theta(u, rows)
            return rows, Th, _log_weight(gen, rows, Th)

        F0 = at(span[:1])[2][0]
        rate = lambda u: at(u)[2] - F0 + u - 2.0 * np.log1p(c * np.expm1(u)) - math.log(a)
        return at, F0, rate

    def reach(grid, rate):
        half, lw = _gauss_segment(rate, grid[:-1], grid[1:])
        return (half * (np.exp(lw) @ _GL10_W)).sum()

    u_end = min(1.0, 2.0 ** math.ceil(math.log2(max(a * t_end, 1e-300))))
    while True:
        span = np.array([0.0, u_end])
        at, F0, rate = log_rate(span)
        coarse = np.linspace(0.0, u_end, max(64, 2 * int(u_end)) + 1)
        if u_end == _REACH or reach(coarse, rate) >= t_end:
            u, log_total = _reparam_from_weight(rate, span, times, normalized=False)
            if u[-1] < u_end:
                break
            if u_end == _REACH:
                raise GeodesicBlowupError(
                    f"geodesic reaches the boundary of the simplex at t*={math.exp(log_total):.17g}",
                    last_valid_t=times[u < u_end][-1],
                )
        u_end *= 2.0
    pts, Th, F = at(u)
    curve = Curve(times, pts, which, velocities=v * np.exp(-lift(u) - (F - F0)[:, None]))
    if which == "dual":
        _dual_range_guard(gen, curve, Th)
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
    th, sign = (_inverse(gen, xi), -1.0) if coord == "dual" else (xi, 1.0)
    mix = np.sum(_portfolio_at(gen, th)[:, :-1] * v, axis=1, keepdims=True)
    return a + sign * (v * v - 2.0 * v * mix)


def geodesic_residual(gen: Generator, curve: Curve, trim: int = 2) -> float:
    """Sup-norm residual of the geodesic equation along a sampled curve.

    Velocities and accelerations come from a cubic spline through the
    sampled points, so the check is independent of how the curve was built
    (stored end velocities, when present, clamp the spline ends).  On a
    uniform power-of-two-plus-one grid the O(step^2) spline truncation is
    removed by Richardson extrapolation against the half-resolution
    subsample, evaluated at their shared interior nodes; other grids give
    the raw residual.
    """
    ends = None
    if curve.velocities is not None:
        ends = (curve.velocities[0], curve.velocities[-1])
    m = curve.times.size
    uniform = np.allclose(np.diff(curve.times), curve.times[1] - curve.times[0], rtol=1e-9)
    if not uniform or m < 9 or m % 2 == 0:
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
    xi, chord, rated, span, theta = _chord(gen, q, r, sign, flow=True)

    def logw(u):
        X, log_rate = rated(u)
        Th = X if sign > 0 else theta(u, X)
        return _log_tilt(_portfolio_at(gen, Th), sign * (xi[1] - X))[:, 0] + log_rate

    u, _ = _reparam_from_weight(logw, span, t_out, normalized=False)
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
    Th = to_primal_many(point_rows(q, target, gen=gen))
    Pi = _portfolio_at(gen, Th)
    pi_q, dpi_q = Pi[0], gen.dpi_dtheta(Th[0])
    L = _metric_entries(gen, pi_q, dpi_q)[1]
    if which == "primal":
        u = raw = _tilt_gradient(pi_q, Th[1] - Th[0])
    else:  # the dual velocity measured as the primal one J^-1 raw, as in _pyth
        ph_q, ph_t = _dual_rows(Th, Pi, gen.name)
        raw = -_tilt_gradient(pi_q, ph_q - ph_t)
        u = _jacobian_solve(gen, _jacobian_from_portfolio(pi_q, dpi_q), raw)
    a = u @ L
    norm = math.sqrt(a @ a)
    return np.zeros_like(raw) if norm < 1e-15 else raw / norm


# ---------------------------------------------------------------------------
# generalized Pythagorean criterion

def _angle_deg(a: np.ndarray, b: np.ndarray, ab: float) -> float:
    """The angle in degrees between vectors a and b of inner product ab,
    NaN when either is shorter than 1e-15, within a few eps (radians) of
    the exact angle.  acos of the cosine c is off by about eps / sin(angle),
    so it serves for |c| <= 1/2 only.  Elsewhere Kahan's 2 atan2(|a r - b|,
    |a r + b|) with r = |b| / |a|: the norm that cancels (the difference
    when c > 0) is taken from the vectors, the other from
    |a r -+ b|^2 = 2 r (|a| |b| + |ab|)."""
    na, nb = math.sqrt(a @ a), math.sqrt(b @ b)
    if na < 1e-15 or nb < 1e-15:
        return math.nan
    c = ab / (na * nb)
    if abs(c) <= 0.5:
        return math.degrees(math.acos(c))
    r = nb / na
    e = a * r - b if c > 0 else a * r + b
    g, h = math.sqrt(e @ e), math.sqrt(2.0 * r * (na * nb + abs(ab)))
    return math.degrees(2.0 * (math.atan2(g, h) if c > 0 else math.atan2(h, g)))


@dataclass(frozen=True)
class PythResult:
    """Outcome of the three-point rebalancing comparison at q."""

    gap: float
    inner: float
    angle_deg: float
    sign_quantity: float


# rows of (p, q, r): T(q|p), T(r|q) and T(r|p) are T(to|at)
_PYTH_TO, _PYTH_AT = np.array([1, 2, 2]), np.array([0, 1, 0])


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

    The three tilts share the gap's normalizers.  With the rows
    X = (q/p, r/q, r/p) and ratio_k = pi(at_k) . X_k, the arguments of the
    logs in the gap, the tilt toward q from p is X_0 / ratio_0 and the tilt
    toward r from q is X_1 / ratio_1.  The dual tilt at q from p is
    X_0 pi(p) / pi(q) / ratio_0: its normalizer Z* = pi(q) . (X_0 pi(p) /
    pi(q)) equals ratio_0.  It is formed as the two-point weight
    Pi(q,p) = pi(p) X_0 / ratio_0 over pi(q), which is at most 1 / pi(q).
    The checks kept are those of the parts: the points' (one array), a
    portfolio at p or q on the simplex boundary (a NonRegularError, where
    the dual tilt is undefined), a ratio <= 0 in the gap, and the metric's
    symmetry and positive definiteness.  ``inner`` and ``angle_deg`` keep
    the metric route, the side of the theorem independent of the gap:
    ``dpi_dtheta`` at q, the dual Jacobian solve for the dual velocity, and
    the metric, whose Cholesky factor L gives the inner product and the
    angle (``_angle_deg``) from a = L^T u and b = L^T v.
    """
    return _pyth(gen, point_rows(p, q, r, gen=gen))


def _pyth(gen: Generator, P: np.ndarray) -> PythResult:
    """:func:`pythagorean_sign` of the unchecked rows ``P`` of p, q and r."""
    Pi = gen.portfolio(P[:2])
    pi_p, pi_q = Pi
    # the gap: T(q|p), T(r|q) and T(r|p) as rows, from the rows of p, q, r
    logv = gen.log_gen(P)
    to, at = _PYTH_TO, _PYTH_AT
    X, ratio = _ratios(P[to], P[at], Pi[at])
    t_qp, t_rq, t_rp = _t_euclid(gen, ratio, logv[to], logv[at]).tolist()
    _check_interior(Pi, gen.name)  # the dual tilt needs pi(p), pi(q) > 0
    # the tilts toward q from p and toward r from q, and the two-point
    # weights Pi(q,p), Pi(r,q)
    E = X[:2] / ratio[:2, None]
    W = Pi * E
    # the gradients of T toward r and, through the dual tilt W_0 / pi(q), from p
    v = E[1, :-1] - E[1, -1]
    dual = W[0] / pi_q
    # the inner product, in primal coordinates at q
    dpi_q = gen.dpi_dtheta(to_primal_many(P[1]))
    _, L = _metric_entries(gen, pi_q, dpi_q)
    u = _jacobian_solve(gen, _jacobian_from_portfolio(pi_q, dpi_q), dual[-1] - dual[:-1])
    a, b = u @ L, v @ L
    inner = float(a @ b)
    angle = _angle_deg(a, b, inner)
    # the sign quantity
    sign_q = 1.0 - float(row_sum(W[0] * W[1] / pi_q))
    return PythResult(gap=t_qp + t_rq - t_rp, inner=inner, angle_deg=angle, sign_quantity=sign_q)


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
    """Vectorized gap T(q|p) + T(r|q) - T(r|p) over rows q of Q, each checked
    (and divided by its sum) as a point."""
    P = point_rows(p, r, *Q, gen=gen)
    return _region_gap(gen, P[0], P[1], P[2:])


def _region_gap(gen: Generator, pa: np.ndarray, ra: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """:func:`region_gap` at the unchecked rows ``pa`` and ``ra``."""
    pi_p = gen.portfolio(pa)
    logv_p = gen.log_gen(pa)
    logv_r = gen.log_gen(ra)
    logv_Q = gen.log_gen(Q)
    t_qp = _t_euclid(gen, _ratios(Q, pa, pi_p)[1], logv_Q, logv_p)
    t_rq = _t_euclid(gen, _ratios(ra, Q, gen.portfolio(Q))[1], logv_r, logv_Q)
    t_rp = _t_euclid(gen, _ratios(ra, pa, pi_p)[1], logv_r, logv_p)
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
    pa, ra = point_rows(p, r, gen=gen)
    if pa.size != 3:
        raise ValueError("region sampling draws on the 2-simplex: need n = 3")
    idx, Q, index_map = _barycentric_lattice(grid_resolution)
    gaps = _region_gap(gen, pa, ra, Q)
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
    extra_gap = _region_gap(gen, pa, ra, extra)
    points = np.vstack([Q, extra])
    gaps = np.concatenate([gaps, extra_gap])
    in_region = np.concatenate([in_region, np.abs(extra_gap) <= 1e-9])
    boundary = np.concatenate([boundary, np.abs(extra_gap) <= 1e-9])
    return RegionSample(points=points, gap=gaps, in_region=in_region,
                        boundary=boundary, boundary_polyline=poly,
                        resolution=grid_resolution)
