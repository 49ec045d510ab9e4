"""Finite-difference, enumeration, scan, time-stepping and trace-distance oracles shared
across test modules, and the tensor contractions and the gradient form of T
that only the tests use.

These deliberately avoid the closed forms and the algorithms they are used
to check.
"""

import itertools
import math

import numpy as np

from lgeo import geometry as geo
from lgeo.divergence import f_value, inverse_dual_coord, l_divergence_primal
from lgeo.generators import Generator, NonRegularError, _portfolio_at, dual_coord, portfolio_theta
from lgeo.geodesics import Curve, GeodesicBlowupError, RegionSample, _rk4_step, region_gap
from lgeo.simplex import _log_tilt, coord_array, point_array, point_rows, psi, psi_many, to_primal

FD_STEP_FIRST = 1e-4
FD_STEP_HIGH = 1e-3


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    m = x.size
    H = np.empty((m, m))
    f0 = f(x)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        H[i, i] = (f(x + ei) - 2 * f0 + f(x - ei)) / h**2
        for j in range(i):
            ej = np.zeros(m)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h * h)
    return H


def fd_second_along(f, t0=0.0, h=1e-3):
    """Second derivative of a scalar function of one variable at t0.

    One Richardson extrapolation of the central stencil (error O(h^4)).
    """
    d = lambda s: (f(t0 + s) - 2 * f(t0) + f(t0 - s)) / s**2
    return (4 * d(h / 2) - d(h)) / 3


def fd_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h))
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# finite-difference routes to the geometry's closed forms

def rc_curvature_assembled(gen: Generator, point, which: str = "primal", h: float = FD_STEP_FIRST) -> np.ndarray:
    """Curvature assembled as dGamma - dGamma + GammaGamma - GammaGamma.

    The Christoffel field is the closed form; its coordinate derivatives are
    taken by central differences, so this is an independent route to R.
    """
    xi = coord_array(point)
    m = xi.size

    if which == "primal":
        gamma_at = lambda x: geo.christoffel_primal(gen, x).gamma
    else:
        # Track theta alongside phi so each displaced inversion starts warm.
        th0 = inverse_dual_coord(gen, xi)

        def gamma_at(x):
            th = inverse_dual_coord(gen, x, x0=th0)
            return geo.christoffel_dual(gen, theta=th).gamma

    G0 = gamma_at(xi)
    dG = np.empty((m, m, m, m))  # dG[a, i, j, k] = d Gamma^k_ij / d xi_a
    for a in range(m):
        e = np.zeros(m)
        e[a] = h
        dG[a] = (gamma_at(xi + e) - gamma_at(xi - e)) / (2 * h)
    # R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik,
    # where dG[i, j, k, l] holds d_i Gamma^l_jk.
    term_quad = np.einsum("iml,jkm->ijkl", G0, G0)
    return dG - dG.transpose(1, 0, 2, 3) + term_quad - term_quad.transpose(1, 0, 2, 3)


def riem_gradient_primal_ratio_form(gen: Generator, r, q) -> np.ndarray:
    """Equivalent expression -Pi_i/pi_i + Pi_n/pi_n via the two-point weights."""
    th_r = to_primal(r).theta
    th_q = to_primal(q).theta
    pi_q = portfolio_theta(gen, th_q)
    Pi = geo.pi_quantities(gen, th_r, th_q).values
    return -Pi[:-1] / pi_q[:-1] + Pi[-1] / pi_q[-1]


def two_point_weights(pi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Normalized pi_l * exp(delta_l) with the implicit delta_n = 0, by a
    log-sum-exp over log pi + delta (the library tilts pi by exp(delta - log Z))."""
    z = np.log(pi) + np.concatenate([delta, [0.0]])
    w = np.exp(z - z.max())
    return w / w.sum()


def riem_gradient_dual_ratio_form(gen: Generator, p, q) -> np.ndarray:
    """Equivalent expression Pi*_i/pi_i - Pi*_n/pi_n via the two-point weights."""
    th_q = to_primal(q).theta
    ph_q = dual_coord(gen, th_q).phi
    ph_p = dual_coord(gen, to_primal(p).theta).phi
    pi_q = portfolio_theta(gen, th_q)
    Pi = two_point_weights(pi_q, ph_q - ph_p)
    return Pi[:-1] / pi_q[:-1] - Pi[-1] / pi_q[-1]


def dual_connection_in_primal_coords(gen: Generator, theta, h: float = FD_STEP_HIGH) -> np.ndarray:
    """Coefficients of the dual connection expressed in primal coordinates.

    Applies the (non-tensorial) connection transformation law with the
    analytic dual Jacobian and a finite-difference second derivative of the
    dual coordinate map.
    """
    th = coord_array(theta)
    m = th.size
    J = geo.dual_jacobian(gen, th)  # d phi / d theta
    A = np.linalg.inv(J)  # d theta / d phi
    gamma_star = geo.christoffel_dual(gen, theta=th).gamma  # in phi coordinates

    # second derivatives d^2 phi_k / d theta_a d theta_b by central differences
    def phi_at(x):
        return dual_coord(gen, x).phi

    D2 = np.empty((m, m, m))  # D2[k, a, b]
    f0 = phi_at(th)
    for a in range(m):
        ea = np.zeros(m)
        ea[a] = h
        D2[:, a, a] = (phi_at(th + ea) - 2 * f0 + phi_at(th - ea)) / h**2
        for b in range(a):
            eb = np.zeros(m)
            eb[b] = h
            mixed = (
                phi_at(th + ea + eb)
                - phi_at(th + ea - eb)
                - phi_at(th - ea + eb)
                + phi_at(th - ea - eb)
            ) / (4 * h**2)
            D2[:, a, b] = mixed
            D2[:, b, a] = mixed
    # Gamma*(theta)^c_ab = A_ck [ Gamma*^k_ij J_ia J_jb + D2[k,a,b] ]
    inner = np.einsum("ijk,ia,jb->abk", gamma_star, J, J) + D2.transpose(1, 2, 0)
    return np.einsum("abk,ck->abc", inner, A)


def christoffel_lowered(gen: Generator, point, which: str) -> np.ndarray:
    """Lowered coefficients Gamma_ijk obtained by contracting with the metric."""
    if which == "primal":
        tensor = geo.christoffel_primal(gen, point)
        g = geo.metric_primal(gen, point).entries
    elif which == "dual":
        tensor = geo.christoffel_dual(gen, point)
        g = geo.metric_dual(gen, point).entries
    else:
        raise ValueError("which must be 'primal' or 'dual'")
    return np.einsum("ijm,mk->ijk", tensor.gamma, g)


def pullback_metric(jacobian: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Bilinear form pulled back to the source coordinates: J^T g J."""
    J = np.asarray(jacobian)
    return J.T @ np.asarray(g) @ J


def l_divergence_gradient_form(gen: Generator, q, p) -> float:
    """T(q|p) through the gradient: log(1 + grad . (q - p)) - dphi."""
    P = point_rows(q, p)
    logv = gen.log_gen(P)
    return float(np.log1p(gen.euclid_grad(P[1]) @ (P[0] - P[1])) - (logv[0] - logv[1]))


def fd_metric_from_divergence(T2, xi, h: float = FD_STEP_HIGH) -> np.ndarray:
    """Metric oracle -d^2 T / d xi_i d xi'_j at the diagonal, 4-point mixed."""
    rows = lambda A, B: np.array([T2(a, b) for a, b in zip(A, B)])
    return fd_metric_rows(rows, xi, h)[0]


def fd_metric_rows(T2_rows, Xi, h: float = FD_STEP_HIGH) -> np.ndarray:
    """:func:`fd_metric_from_divergence` at each row of ``Xi`` (K, m), from one
    call ``T2_rows(A, B)`` that returns T(A_r, B_r) for all 4 K m^2 stencil rows."""
    Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
    K, m = Xi.shape
    E = h * np.eye(m)
    # stencil axes (point k, i, j, term s, coordinate): T(xi + a_s e_i, xi + b_s e_j)
    a = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
    b = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    shape = (K, m, m, 4, m)
    A = np.broadcast_to(Xi[:, None, None, None] + a * E[None, :, None, None], shape)
    B = np.broadcast_to(Xi[:, None, None, None] + b * E[None, None, :, None], shape)
    T = np.asarray(T2_rows(A.reshape(-1, m), B.reshape(-1, m))).reshape(K, m, m, 4)
    return -(T[..., 0] - T[..., 1] - T[..., 2] + T[..., 3]) / (4 * h**2)


def t_primal_rows(gen: Generator, Th, Th2) -> np.ndarray:
    """T between rows of exponential coordinates ``Th`` and ``Th2``: the formula
    of :func:`lgeo.divergence.l_divergence_primal`, every row at once."""
    N = len(Th)
    f = f_value(gen, np.concatenate([Th, Th2]))
    return _log_tilt(_portfolio_at(gen, Th2), Th - Th2)[:, 0] - (f[:N] - f[N:])


def t_dual_rows(gen: Generator, Ph, Ph2) -> np.ndarray:
    """T between rows of dual coordinates ``Ph`` and ``Ph2``: the formula of
    :func:`lgeo.divergence.l_divergence_dual`, with one batched inverse."""
    N = len(Ph)
    both = np.concatenate([Ph, Ph2])
    th = inverse_dual_coord(gen, both)
    fstar = psi_many(th - both) - f_value(gen, th)
    return _log_tilt(_portfolio_at(gen, th[:N]), Ph - Ph2)[:, 0] - (fstar[N:] - fstar[:N])


def fd_lowered_primal_connection(T2, xi, h: float = FD_STEP_HIGH) -> np.ndarray:
    """Oracle Gamma_ijk = -d^3 T / d xi_i d xi_j d xi'_k at the diagonal."""
    xi = np.asarray(xi, dtype=float)
    m = xi.size

    def dk(first, k):
        ek = np.zeros(m)
        ek[k] = h
        return (T2(first, xi + ek) - T2(first, xi - ek)) / (2 * h)

    out = np.empty((m, m, m))
    for k in range(m):
        base = dk(xi, k)
        for i in range(m):
            ei = np.zeros(m)
            ei[i] = h
            out[i, i, k] = -(dk(xi + ei, k) - 2 * base + dk(xi - ei, k)) / h**2
            for j in range(i):
                ej = np.zeros(m)
                ej[j] = h
                mixed = -(
                    dk(xi + ei + ej, k)
                    - dk(xi + ei - ej, k)
                    - dk(xi - ei + ej, k)
                    + dk(xi - ei - ej, k)
                ) / (4 * h**2)
                out[i, j, k] = mixed
                out[j, i, k] = mixed
    return out


def fd_lowered_dual_connection(T2, xi, h: float = FD_STEP_HIGH) -> np.ndarray:
    """Oracle Gamma*_ijk = -d^3 T / d xi_k d xi'_i d xi'_j at the diagonal."""
    xi = np.asarray(xi, dtype=float)
    m = xi.size

    def second_in_prime(first, i, j):
        ei = np.zeros(m)
        ei[i] = h
        if i == j:
            return (T2(first, xi + ei) - 2 * T2(first, xi) + T2(first, xi - ei)) / h**2
        ej = np.zeros(m)
        ej[j] = h
        return (
            T2(first, xi + ei + ej)
            - T2(first, xi + ei - ej)
            - T2(first, xi - ei + ej)
            + T2(first, xi - ei - ej)
        ) / (4 * h**2)

    out = np.empty((m, m, m))
    for k in range(m):
        ek = np.zeros(m)
        ek[k] = h
        for i in range(m):
            for j in range(i + 1):
                val = -(
                    second_in_prime(xi + ek, i, j) - second_in_prime(xi - ek, i, j)
                ) / (2 * h)
                out[i, j, k] = val
                out[j, i, k] = val
    return out


# ---------------------------------------------------------------------------
# factorial transport oracles

def _cost_matrix_logsumexp(P, Q):
    """C[i, j] = log(1 + sum_k exp(P_ik - Q_jk)), max-shifted by hand."""
    diff = P[:, None, :] - Q[None, :, :]
    mx = np.maximum(diff.max(axis=-1), 0.0)
    return mx + np.log(np.exp(-mx) + np.exp(diff - mx[..., None]).sum(axis=-1))


def enumerated_c_cyclical_monotone(sample, m_max: int) -> bool:
    """Test cyclical monotonicity on every subset of at most m_max pairs.

    For every subset and every permutation of its second coordinates, the
    diagonal coupling must not cost more than the permuted one (up to 1e-10
    slack).  With ``m_max = len(sample)`` this covers every cycle; the cost
    is factorial.
    """
    pairs = sample.pairs
    N = len(pairs)
    thetas = np.array([np.asarray(t, dtype=float) for t, _ in pairs])
    phis = np.array([np.asarray(f, dtype=float) for _, f in pairs])
    C = _cost_matrix_logsumexp(thetas, phis)
    rows = {}
    for size in range(2, min(m_max, N) + 1):
        if size not in rows:
            rows[size] = np.array(list(itertools.permutations(range(size))))
        perms = rows[size]
        arange = np.arange(size)
        for subset in itertools.combinations(range(N), size):
            idx = np.array(subset)
            M = C[np.ix_(idx, idx)]
            base = M[arange, arange].sum()
            permuted = M[arange[None, :], perms].sum(axis=1)
            if base > permuted.min() + 1e-10:
                return False
    return True


def brute_force_optimal(P_support, Q_support):
    """Optimal equal-mass assignment by permutation enumeration with pruning.

    Supports of at most 8 points; returns ``(assignment, cost)`` where
    ``assignment[i]`` is the index of the target point coupled to source i.
    """
    P = np.atleast_2d(np.asarray(P_support, dtype=float))
    Q = np.atleast_2d(np.asarray(Q_support, dtype=float))
    m = P.shape[0]
    if Q.shape[0] != m:
        raise ValueError("equal-mass assignment needs equally sized supports")
    if m > 8:
        raise ValueError("brute-force assignment limited to 8 support points")
    C = _cost_matrix_logsumexp(P, Q)

    best_cost = np.inf
    best_perm = None
    used = np.zeros(m, dtype=bool)
    perm = np.empty(m, dtype=int)
    # cheapest completion bound: per remaining row, its minimal column cost
    row_min = C.min(axis=1)

    def recurse(i, acc):
        nonlocal best_cost, best_perm
        if i == m:
            if acc < best_cost:
                best_cost = acc
                best_perm = perm.copy()
            return
        if acc + row_min[i:].sum() >= best_cost:
            return
        for j in range(m):
            if not used[j]:
                used[j] = True
                perm[i] = j
                recurse(i + 1, acc + C[i, j])
                used[j] = False

    recurse(0, 0.0)
    return best_perm, float(best_cost)


# ---------------------------------------------------------------------------
# the rebalancing region by a scan over lattice tuples

def region_sample_scan(gen, p, r, grid_resolution):
    """``region_sample`` with a tuple-built lattice and a per-point neighbour scan."""
    pa, ra = point_array(p), point_array(r)
    idx = []
    for i in range(1, grid_resolution):
        for j in range(1, grid_resolution - i):
            idx.append((i, j, grid_resolution - i - j))
    idx = np.array(idx, dtype=int)
    Q = idx / grid_resolution
    gaps = region_gap(gen, pa, ra, Q)
    in_region = gaps <= 1e-12
    index_map = {(i, j): k for k, (i, j, _) in enumerate(idx)}
    boundary = np.zeros(Q.shape[0], dtype=bool)
    segments = []
    for k, (i, j, _) in enumerate(idx):
        for di, dj in ((1, 0), (0, 1), (1, -1)):
            k2 = index_map.get((i + di, j + dj))
            if k2 is None:
                continue
            g1, g2 = gaps[k], gaps[k2]
            if (g1 <= 0 < g2) or (g2 <= 0 < g1):
                boundary[k] = boundary[k2] = True
                if g1 != g2:
                    lam = g1 / (g1 - g2)
                    segments.append(Q[k] + lam * (Q[k2] - Q[k]))
    extra = np.array([pa, ra])
    extra_gap = region_gap(gen, pa, ra, extra)
    points = np.vstack([Q, extra])
    gaps = np.concatenate([gaps, extra_gap])
    in_region = np.concatenate([in_region, np.abs(extra_gap) <= 1e-9])
    boundary = np.concatenate([boundary, np.abs(extra_gap) <= 1e-9])
    poly = np.array(segments) if segments else np.empty((0, 3))
    return RegionSample(points=points, gap=gaps, in_region=in_region,
                        boundary=boundary, boundary_polyline=poly,
                        resolution=grid_resolution)


# ---------------------------------------------------------------------------
# curves by direct time stepping

def geodesic_acceleration(gen: Generator, xi: np.ndarray, v: np.ndarray, which: str,
                          theta_hint=None) -> np.ndarray:
    """Acceleration -Gamma(xi)(v, v) of the requested connection.

    Contraction of the closed-form symbols: the primal one is
    -(v_k^2 - 2 v_k <pi, v>), the dual one its negative with pi at the
    dual-coordinate point.
    """
    if which == "primal":
        pi = _portfolio_at(gen, xi)
    else:
        pi = _portfolio_at(gen, inverse_dual_coord(gen, xi, x0=theta_hint))
    mix = pi[:-1] @ v
    quad = v * v - 2.0 * v * mix
    return -quad if which == "primal" else quad


def geodesic_invariant(gen, xi, v, which, theta_hint=None) -> np.ndarray:
    """First integral of the geodesic equation at one point and velocity.

    Along a primal geodesic every component of ``v_k exp(xi_k - 2 f(xi))``
    is constant; the dual analog conserves ``-v_k exp(-xi_k - 2 f*(xi))``.
    """
    if which == "primal":
        return v * np.exp(xi - 2.0 * f_value(gen, xi))
    th = inverse_dual_coord(gen, xi, x0=theta_hint)
    fstar = psi(th - xi) - f_value(gen, th)
    return -v * np.exp(-xi - 2.0 * fstar)


def integrate_geodesic_stages(gen, xi0, v0, which="primal", steps=128, t_end=1.0):
    """The geodesic equation stepped by fixed-step classical RK4 from
    (xi0, v0), with the four stages of (xi, v) written out."""
    xi = coord_array(xi0).copy()
    v = np.asarray(v0, dtype=float).copy()
    dt = t_end / steps
    times = np.linspace(0.0, t_end, steps + 1)
    pts = np.empty((steps + 1, xi.size))
    vels = np.empty_like(pts)
    pts[0], vels[0] = xi, v
    hint = {"theta": None}

    def acc(x, w):
        a = geodesic_acceleration(gen, x, w, which, theta_hint=hint["theta"])
        if which == "dual":
            hint["theta"] = inverse_dual_coord(gen, x, x0=hint["theta"])
        return a

    for k in range(steps):
        k1x, k1v = v, acc(xi, v)
        k2x, k2v = v + 0.5 * dt * k1v, acc(xi + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = v + 0.5 * dt * k2v, acc(xi + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = v + dt * k3v, acc(xi + dt * k3x, v + dt * k3v)
        xi = xi + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        pts[k + 1], vels[k + 1] = xi, v
    return Curve(times, pts, which, velocities=vels)


def flow_slack(gen, th_target) -> float:
    """Largest rise of T per step that ``rk4_flow`` accepts as rounding noise:
    a few ulp of |f(theta_target)|, the size of the potentials T subtracts."""
    return 1e-15 + 16.0 * np.finfo(float).eps * (1.0 + abs(f_value(gen, th_target)))


def _primal_rhs(gen, th, th_target):
    pi = portfolio_theta(gen, th)
    delta = np.concatenate([th_target - th, [0.0]])
    m = delta.max()
    logZ = m + np.log(pi @ np.exp(delta - m))
    return np.exp(delta[:-1] - logZ) - np.exp(-logZ)


def _dual_rhs(gen, th, ph_target):
    """(theta_dot, phi_dot, phi) of the dual flow at ``th``, through the
    Jacobian of the dual coordinate map."""
    pi = portfolio_theta(gen, th)
    if np.any(pi <= 0.0):
        raise NonRegularError(f"{gen.name}: portfolio touches the simplex boundary")
    ph = th - (np.log(pi[:-1]) - np.log(pi[-1]))
    delta = np.concatenate([ph - ph_target, [0.0]])
    m = delta.max()
    logZ = m + np.log(pi @ np.exp(delta - m))
    phi_dot = -(np.exp(delta[:-1] - logZ) - np.exp(-logZ))
    J = geo._jacobian_from_portfolio(pi, gen.dpi_dtheta(th))
    return np.linalg.solve(J, phi_dot), phi_dot, ph


def rk4_flow(gen, q, target, kind="primal", horizon=20.0, steps=800):
    """Gradient flow by RK4 in exponential coordinates with step control.

    A step of horizon / steps is tried and halved, up to 50 times, while T
    to the target would rise by more than :func:`flow_slack` or cannot be
    evaluated (a try that overflows or reaches the simplex boundary).
    Returns ``(times, points, velocities)``; dual flows report phi and
    phi_dot.
    """
    th_t = to_primal(target).theta
    if kind == "primal":
        rhs = lambda x: _primal_rhs(gen, x, th_t)
        state = lambda x: (rhs(x), x, rhs(x))
        divergence = lambda x: l_divergence_primal(gen, th_t, x).value
    else:
        ph_t = dual_coord(gen, th_t).phi
        rhs = lambda x: _dual_rhs(gen, x, ph_t)[0]

        def state(x):
            th_dot, ph_dot, ph = _dual_rhs(gen, x, ph_t)
            return th_dot, ph, ph_dot

        divergence = lambda x: l_divergence_primal(gen, x, th_t).value
    slack = flow_slack(gen, th_t)
    th = to_primal(q).theta
    k1, point, vel = state(th)
    times, pts, vels = [0.0], [point], [vel]
    value = divergence(th)
    dt = horizon / steps
    t = 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while t < horizon - 1e-12:
            step = min(dt, horizon - t)
            for _ in range(50):
                try:
                    cand = _rk4_step(rhs, th, step, k1)
                    cand_val = divergence(cand)
                except ValueError:
                    cand_val = np.inf
                if cand_val <= value + slack:
                    break
                step *= 0.5
            if not math.isfinite(cand_val):
                raise GeodesicBlowupError(f"flow left the finite range at t={t:.6f}")
            th, value, t = cand, cand_val, t + step
            k1, point, vel = state(th)
            times.append(t)
            pts.append(point)
            vels.append(vel)
    return np.array(times), np.array(pts), np.array(vels)


def point_segment_distance(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of pts to the segment [a, b]."""
    pts = np.atleast_2d(pts)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(pts - a, axis=1)
    s = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    proj = a + s[:, None] * ab
    return np.linalg.norm(pts - proj, axis=1)


def _points_to_polyline(P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Distance from each row of P to the polyline with vertices V."""
    best = np.full(P.shape[0], np.inf)
    for a, b in zip(V[:-1], V[1:]):
        best = np.minimum(best, point_segment_distance(P, a, b))
    return best


def polyline_hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two polylines (vertex sampling)."""
    return float(max(_points_to_polyline(A, B).max(), _points_to_polyline(B, A).max()))
