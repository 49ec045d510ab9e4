"""Output checks: every operation's result against an independent invariant.

A check raises :class:`CheckFailed` naming the invariant that broke.
Tolerances are a fixed number of rounding units times the magnitude of the
terms involved (``ROUND * scale``), so run-to-run noise cannot flip them
while a perturbed row or a shifted column fails.  Accuracy figures that are
recorded but not gated are returned as a dict.
"""

from __future__ import annotations

import numpy as np

from oracle import EPS, affine_position, antiderivative, primal, psi, softmax_tail

ROUND = 512 * EPS          # rounding allowance per unit of term magnitude
FLOW_SLACK = 1e-15         # lgeo's own step-acceptance slack in the flows
NEAR_PAIR = 1e-5           # separations at or below this are "near-diagonal"


class CheckFailed(Exception):
    """An operation's output broke the named invariant."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def require(ok, check: str, detail: str = "") -> None:
    if not bool(ok):
        raise CheckFailed(check, detail)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _close(a, b, scale, check, what):
    err = np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    tol = ROUND * np.max(scale)
    require(err <= tol, check, f"{what} off by {err:.3g} > {tol:.3g}")


def _cli_ok(rc, check="exit_status"):
    require(rc == 0, check, f"lgeo exited with status {rc}")


# ---------------------------------------------------------------------------
# curves

RK4_ALLOW = 1.0            # global RK4 error allowance, in units of dt^4 (1 + t)


class Line:
    """The straight segment that the curves from q toward r run on.

    Primal curves move ``X = exp(theta)`` and dual curves ``X = exp(-phi)``
    along the segment ``(1 - h) a + h b`` between the endpoints' images.
    """

    def __init__(self, fam, q, r, kind):
        self.fam, self.kind = fam, kind
        self.th_q, self.th_r = primal(q), primal(r)
        if kind == "primal":
            self.ends = (self.th_q, self.th_r)
            self.a, self.b = np.exp(self.th_q), np.exp(self.th_r)
        else:
            self.ends = (fam.dual(self.th_q), fam.dual(self.th_r))
            self.a, self.b = np.exp(-self.ends[0]), np.exp(-self.ends[1])

    def image(self, pts):
        return np.exp(pts) if self.kind == "primal" else np.exp(-pts)

    def scale(self, X) -> float:
        """Rounding amplification of positions recovered from ``X``."""
        return 1.0 + np.max(np.abs(X)) / np.max(np.abs(self.b - self.a))

    def _at(self, h):
        """Line point X(h) and its exponential coordinates theta."""
        X = (1.0 - h)[:, None] * self.a + h[:, None] * self.b
        if self.kind == "primal":
            return X, np.log(X)
        guess = (1.0 - h)[:, None] * self.th_q + h[:, None] * self.th_r
        return X, self.fam.inverse_dual(-np.log(X), guess)

    def log_weight(self, h):
        """log of the geodesic's quadrature weight exp(-2 f) (dual: exp(-2 f*))."""
        X, th = self._at(h)
        if self.kind == "primal":
            return -2.0 * self.fam.f(th)
        return -2.0 * (psi(th + np.log(X)) - self.fam.f(th))

    def flow_speed(self, h):
        """Z(h) = sum_i pi_i b_i / X_i (the n-th terms are 1): along the
        gradient flow toward r, dX/dt = (b - X) / Z."""
        X, th = self._at(h)
        pi = self.fam.portfolio(softmax_tail(th))
        return pi[:, -1] + np.sum(pi[:, :-1] * self.b / X, axis=1)


def _curve_csv(fam, kind, path):
    label = "theta" if kind == "primal" else "phi"
    header, data = read_csv(path)
    require(header == ["t"] + [f"{label}_{i + 1}" for i in range(fam.n - 1)],
            "csv_header", repr(header))
    return data[:, 0], data[:, 1:]


def geodesic(fam, q, r, grid, kind, rc, path, lgeo=None):
    """Primal (dual) geodesic: its line image lies on the segment between the
    endpoints' images, and its position h there has the affine time
    t(h) = int_0^h w / int_0^1 w, with the weight w integrated here."""
    _cli_ok(rc)
    t, pts = _curve_csv(fam, kind, path)
    require(t.size == grid, "row_count", f"{t.size} rows, expected {grid}")
    require(np.array_equal(t, np.linspace(0.0, 1.0, grid)), "time_grid")
    line = Line(fam, q, r, kind)
    _close(pts[0], line.ends[0], 1.0 + np.abs(line.ends[0]), "geodesic_start", "first point")
    _close(pts[-1], line.ends[1], 1.0 + np.abs(line.ends[1]), "geodesic_end", "last point")
    X = line.image(pts)
    h, _, off = affine_position(X, line.a, line.b)
    scale = line.scale(X)
    worst = int(np.argmax(off))
    require(off[worst] <= ROUND * scale, "on_segment",
            f"row {worst} is {off[worst]:.3g} off the segment")
    shift = np.max(line.log_weight(np.linspace(0.0, 1.0, 9)))
    F = antiderivative(lambda x: np.exp(line.log_weight(x) - shift), 0.0, 1.0)
    total = F(1.0)
    err = np.abs(t - F(h) / total) - ROUND * scale * (1.0 + F.deriv()(h) / total)
    worst = int(np.argmax(err))
    require(err[worst] <= 0.0, "affine_time",
            f"row {worst}: t={t[worst]!r}, the weight integral gives {F(h[worst]) / total!r}")
    if lgeo is None:
        return {}
    curve = lgeo.Curve(t, pts, kind)
    gen = fam.build(lgeo)
    return {"geodesics.residual_max": lgeo.geodesics.geodesic_residual(gen, curve)}


def flow(fam, q, target, horizon, steps, kind, rc, path):
    """Gradient flow toward ``target`` in ``steps`` RK4 steps: a time change
    of the geodesic.  Its line image lies on the segment toward the target's,
    u = -log(1 - h) has t(u) = int_0^u Z (see ``Line.flow_speed``) to RK4
    accuracy, no step exceeds horizon / steps, and the divergence to the
    target (T(target|.) primal, T(.|target) dual) never increases."""
    _cli_ok(rc)
    t, pts = _curve_csv(fam, kind, path)
    dt = horizon / steps
    require(t.size >= steps + 1 and t[0] == 0.0 and np.all(np.diff(t) > 0)
            and np.all(np.diff(t) <= dt * (1.0 + 1e-9)), "time_grid",
            f"{t.size} rows, largest step {np.max(np.diff(t), initial=0.0)!r}")
    require(abs(t[-1] - horizon) <= 1e-9 * horizon, "horizon", f"ends at t={t[-1]!r}")
    line = Line(fam, q, target, kind)
    _close(pts[0], line.ends[0], 1.0 + np.abs(line.ends[0]), "flow_start", "first point")
    X = line.image(pts)
    h, rest, off = affine_position(X, line.a, line.b)
    scale = line.scale(X)
    rk4 = RK4_ALLOW * dt**4
    worst = int(np.argmax(off))
    require(off[worst] <= rk4 + ROUND * scale, "on_segment",
            f"row {worst} is {off[worst]:.3g} off the segment")
    require(np.all(rest > 0.0), "before_target", "the flow reaches or passes the target")
    u = -np.log(rest)
    F = antiderivative(lambda v: line.flow_speed(1.0 - np.exp(-v)), 0.0, float(np.max(u)))
    err = np.abs(t - F(u)) - rk4 * (1.0 + t) - ROUND * scale * F.deriv()(u) / rest
    worst = int(np.argmax(err))
    require(err[worst] <= 0.0, "flow_time",
            f"row {worst}: t={t[worst]!r}, the speed integral gives {F(u[worst])!r}")
    if kind == "primal":
        P = softmax_tail(pts)
        T, scale = fam.divergence(np.broadcast_to(target, P.shape), P)
    else:
        guess = (1.0 - h)[:, None] * line.th_q + h[:, None] * line.th_r
        P = softmax_tail(fam.inverse_dual(pts, guess))
        T, scale = fam.divergence(P, np.broadcast_to(target, P.shape))
    rise = np.diff(T) - (FLOW_SLACK + ROUND * (scale[1:] + scale[:-1]))
    worst = int(np.argmax(rise))
    require(rise[worst] <= 0.0, "divergence_nonincreasing",
            f"T rises by {np.diff(T)[worst]:.3g} at row {worst + 1}")
    return {}


# ---------------------------------------------------------------------------
# batch


def _lattice(res: int) -> np.ndarray:
    idx = [(i, j, res - i - j) for i in range(1, res) for j in range(1, res - i)]
    return np.array(idx, dtype=int) / res


def region(fam, p, r, res, rc, path, lgeo, gen, sub_rows):
    """Region CSV: the lattice is complete, every gap matches the reference
    formula, and the flags agree with ``pythagorean_sign`` on ``sub_rows``."""
    _cli_ok(rc)
    header, data = read_csv(path)
    require(header == ["q1", "q2", "q3", "gap", "in_region"], "csv_header", repr(header))
    Q = _lattice(res)
    m = Q.shape[0]
    require(data.shape[0] == m + 2, "row_count", f"{data.shape[0]} rows, expected {m + 2}")
    require(np.array_equal(data[:m, :3], Q), "lattice")
    _close(data[m:, :3], np.vstack([p, r]), 8.0, "endpoints", "appended p, r")
    pts, gap, flag = data[:, :3], data[:, 3], data[:, 4]
    t_qp, s1 = fam.divergence(pts, p)
    t_rq, s2 = fam.divergence(np.broadcast_to(r, pts.shape), pts)
    t_rp, s3 = fam.divergence(r, p)
    err = np.abs(gap - (t_qp + t_rq - t_rp)) - ROUND * (s1 + s2 + s3)
    worst = int(np.argmax(err))
    require(err[worst] <= 0.0, "gap_reference", f"row {worst} gap {gap[worst]!r}")
    require(np.array_equal(flag[:m], (gap[:m] <= 1e-12).astype(float)), "flag_threshold")
    require(np.all(flag[m:] == 1.0), "endpoint_flags")
    for k in sub_rows:
        res_k = lgeo.pythagorean_sign(gen, p, pts[k], r)
        if abs(res_k.gap) > ROUND * (s1[k] + s2[k] + s3):
            require(flag[k] == float(res_k.gap <= 0.0), "flag_vs_pythagorean_sign",
                    f"row {k}: flag {flag[k]:g}, pythagorean gap {res_k.gap!r}")
    return {}


def backtest(fam, mu, rc, path):
    """Backtest report: ``log_v`` equals the one-step product recursion
    recomputed here, and the decomposition columns add up to it."""
    _cli_ok(rc)
    header, data = read_csv(path)
    require(header == ["t", "log_v", "drift", "cum_divergence", "identity_residual"],
            "csv_header", repr(header))
    T = mu.shape[0]
    require(data.shape[0] == T, "row_count", f"{data.shape[0]} rows, expected {T}")
    require(np.array_equal(data[:, 0], np.arange(T)), "time_stamps")
    log_v, drift, cum, resid = data[:, 1], data[:, 2], data[:, 3], data[:, 4]
    ratios = np.log(np.sum(fam.portfolio(mu[:-1]) * (mu[1:] / mu[:-1]), axis=1))
    own = np.concatenate([[0.0], np.cumsum(ratios)])
    err = np.abs(log_v - own) - 64 * EPS * (1.0 + np.arange(T))
    worst = int(np.argmax(err))
    require(err[worst] <= 0.0, "log_v_recursion", f"row {worst}: {log_v[worst]!r} vs {own[worst]!r}")
    lg = fam.log_gen(mu)
    _close(drift, lg - lg[0], 1.0 + np.abs(lg) + abs(lg[0]), "drift", "drift column")
    _close(drift + cum + resid, log_v, 1.0 + np.abs(log_v) + np.abs(drift) + np.abs(cum),
           "identity_columns", "drift + divergence + residual")
    return {"finance.identity_residual_max": float(np.max(np.abs(resid)))}


def transport(a, b, sigma, lam, samples, rc, stdout, path):
    """Gaussian transport audit: it reports success, the map is the affine
    map fixed by (a, b, lam), and the pushed sample matches the target."""
    _cli_ok(rc)
    require("transport check passed" in stdout, "transport_passed", stdout.strip()[-200:])
    header, data = read_csv(path)
    require(header[0] == "marginal" and data.shape[0] == a.size, "csv_shape")
    scale, shift, mean, target, tol_mean, var, tvar = (data[:, k] for k in range(1, 8))
    _close(scale, 1.0 - lam, 4.0, "map_scale", "map scale")
    own_shift = b - (1.0 - lam) * a
    _close(shift, own_shift, 1.0 + np.abs(a) + np.abs(b), "map_shift", "map shift")
    _close(target, b, 1.0 + np.abs(b), "target_mean", "target mean")
    sd = (1.0 - lam) * sigma
    _close(tol_mean, 4.0 * sd / np.sqrt(samples), 1.0, "mean_tolerance", "mean tolerance")
    require(np.all(np.abs(mean - b) <= 4.0 * sd / np.sqrt(samples)), "pushed_mean")
    require(np.all(np.abs(var - sd**2) <= 0.05 * sd**2), "pushed_variance")
    return {}


# ---------------------------------------------------------------------------
# pointwise library calls


def divergence(fam, q, p, value, lgeo, gen, separation):
    """``l_divergence`` agrees with ``c_divergence`` (the transport-duality
    route) and with the reference formula, to rounding."""
    ref, scale = fam.divergence(q, p)
    th_q, th_p = primal(q), primal(p)
    ph_p = fam.dual(th_p)
    scale_c = (1.0 + abs(psi(th_q - ph_p)) + abs(fam.f(th_q)) + abs(psi(th_p - ph_p))
               + abs(fam.f(th_p)))
    dual_route = lgeo.c_divergence(gen, q, p)
    tol = ROUND * (scale + scale_c)
    require(abs(value - ref) <= tol, "divergence_reference", f"{value!r} vs {ref!r}")
    require(abs(value - dual_route) <= tol, "divergence_vs_c_divergence",
            f"{value!r} vs {dual_route!r}")
    if separation > NEAR_PAIR:
        return {}
    prim = lgeo.l_divergence_primal(gen, th_q, th_p).value
    if prim == 0.0:
        return {}
    return {"divergence.near_diag_rel_err_max": abs(value - prim) / abs(prim)}


def pyth(fam, p, q, r, res):
    """Three-point gap matches the reference formula; gap, metric inner
    product and closed-form sign quantity agree in sign."""
    t1, s1 = fam.divergence(q, p)
    t2, s2 = fam.divergence(r, q)
    t3, s3 = fam.divergence(r, p)
    tol = ROUND * (s1 + s2 + s3)
    require(abs(res.gap - (t1 + t2 - t3)) <= tol, "gap_reference", f"{res.gap!r}")
    if abs(res.gap) > 1e6 * tol and abs(res.inner) > 1e-9:
        require(np.sign(res.gap) == np.sign(res.inner) == np.sign(res.sign_quantity),
                "sign_agreement", f"gap {res.gap!r} inner {res.inner!r} "
                f"sign {res.sign_quantity!r}")
    return {}


def metric(fam, theta, m):
    """Metric coefficients equal diag(pi) - pi pi^T - d pi / d theta and are
    positive definite."""
    pi = fam.portfolio(softmax_tail(theta))[:-1]
    G = np.diag(pi) - np.outer(pi, pi) - fam.dpi_dtheta(theta)[:-1]
    _close(m.entries, G, 1.0 + np.abs(G), "metric_reference", "metric entries")
    require(np.linalg.eigvalsh(m.entries).min() > 0.0, "positive_definite")
    return {}


def christoffel(fam, theta, c):
    """Primal Christoffel symbols equal d_ijk - d_ik pi_j - d_jk pi_i."""
    pi = fam.portfolio(softmax_tail(theta))[:-1]
    m = pi.size
    eye = np.eye(m)
    d3 = np.zeros((m, m, m))
    d3[np.arange(m), np.arange(m), np.arange(m)] = 1.0
    ref = d3 - eye[:, None, :] * pi[None, :, None] - eye[None, :, :] * pi[:, None, None]
    _close(c.gamma, ref, 2.0, "christoffel_reference", "Christoffel symbols")
    return {}


def riem_gradient(fam, p, q, g):
    """Dual Riemannian gradient of T(.|p) at q: (exp(phi_q - phi_p) - 1) / Z."""
    ph_q, ph_p = fam.dual(primal(q)), fam.dual(primal(p))
    delta = np.concatenate([ph_q - ph_p, [0.0]])
    z = float(fam.portfolio(q) @ np.exp(delta))
    ref = (np.exp(delta[:-1]) - 1.0) / z
    _close(g, ref, 1.0 + np.abs(ref) + np.exp(np.abs(delta[:-1])), "gradient_reference",
           "dual gradient")
    return {}


def c_transform(fam, theta0, phi, value):
    """Fenchel equality: f(theta0) + f*(phi) = psi(theta0 - phi) at the point
    whose dual coordinate is phi."""
    c = psi(theta0 - phi)
    f = fam.f(theta0)
    gap = abs(f + value - c)
    require(gap <= ROUND * (1.0 + abs(c) + abs(f) + abs(value)), "fenchel_equality",
            f"gap {gap:.3g}")
    return {"divergence.fenchel_gap_max": float(gap)}


def trajectory(fam, theta, grid, curve):
    """Displacement trajectory: F_t(theta) = theta - log(pi_t / pi_t,n) with
    pi_t = (1 - t) / n + t pi(theta)."""
    ts = np.linspace(0.0, 1.0, grid)
    require(np.array_equal(curve.times, ts), "time_grid")
    pi = fam.portfolio(softmax_tail(theta))
    pit = (1.0 - ts)[:, None] / fam.n + ts[:, None] * pi[None, :]
    ref = theta - (np.log(pit[:, :-1]) - np.log(pit[:, -1:]))
    _close(curve.points, ref, 1.0 + np.abs(ref), "trajectory_reference", "trajectory")
    return {}


def compare(fam, W, rep):
    """Rebalancing {0,1} against {0} on three rows: the value difference is
    T(q|p) + T(r|q) - T(r|p), and the angle-criterion gap matches it."""
    p, q, r = W
    t1, s1 = fam.divergence(q, p)
    t2, s2 = fam.divergence(r, q)
    t3, s3 = fam.divergence(r, p)
    tol = ROUND * (s1 + s2 + s3)
    require(abs(rep.difference - (t1 + t2 - t3)) <= tol, "value_difference",
            f"{rep.difference!r} vs {t1 + t2 - t3!r}")
    require(rep.pythagorean_gap is not None
            and abs(rep.pythagorean_gap - rep.difference) <= tol, "pythagorean_gap")
    return {}


def regularity(points, rep):
    """Every built-in family used here is regular at every interior point."""
    require(len(rep.records) == len(points), "record_count")
    require(rep.passed, "regular", rep.summary())
    return {}
