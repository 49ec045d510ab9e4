"""Log-approximation divergences and the transport duality around them.

The central object is the divergence

    T(q | p) = log(1 + grad_phi(p) . (q - p)) - (phi(q) - phi(p)),

the error of the sharpened first-order approximation available to
exponentially concave ``phi``.  It admits three coordinate representations
(Euclidean, primal, dual) that must agree, is reproduced by the cost-based
divergence of the c-concave function ``f = phi + psi``, and certifies
optimality of the induced transport map through cyclical monotonicity,
checked over every cycle by one optimal assignment.

Importing this module loads no scipy.  :func:`optimal_assignment`, and with
it the monotonicity certificates, imports ``scipy.optimize`` on first use,
as does :func:`minimize`, the Nelder-Mead fallback of
:func:`c_transform_argmin`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import Generator, NonRegularError, _dual_rows, _portfolio_at
from .simplex import (
    _log_tilt,
    coord_array,
    coord_rows,
    from_primal_many,
    point_rows,
    psi,
    psi_many,
    to_primal_many,
)

__all__ = [
    "DivergenceValue",
    "CouplingSample",
    "ConvergenceError",
    "l_divergence",
    "l_divergence_primal",
    "l_divergence_dual",
    "bregman",
    "f_value",
    "c_transform",
    "c_transform_argmin",
    "inverse_dual_coord",
    "c_divergence",
    "c_divergence_dual",
    "optimal_assignment",
    "is_c_cyclical_monotone",
    "is_mcm",
    "pyth_transport_gap",
]


class ConvergenceError(RuntimeError):
    """Inner minimization failed to converge; ``row`` is the failing row of
    a row-array call, if any."""

    def __init__(self, msg, row=None):
        super().__init__(msg)
        self.row = row


@dataclass(frozen=True)
class DivergenceValue:
    """Non-negative divergence value with the coordinate system that made it."""

    value: float
    rep: str

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class CouplingSample:
    """Finite sample of (theta, phi) pairs from a coupling."""

    pairs: list

    def __post_init__(self):
        if len(self.pairs) == 0:
            raise ValueError("a coupling sample must be non-empty")
        for th, ph in self.pairs:
            if not (np.all(np.isfinite(th)) and np.all(np.isfinite(ph))):
                raise ValueError("coupling sample entries must be finite")

    def __len__(self):
        return len(self.pairs)


# ---------------------------------------------------------------------------
# the divergence in its three coordinate systems

def _t_euclid(gen: Generator, Q, P, Pi_P, logv_Q, logv_P):
    """T(q|p) = log(pi(p) . q/p) - (phi(q) - phi(p)) over rows q of Q and p of P,
    from the portfolios ``Pi_P`` and the log generator values."""
    ratio = (Pi_P * (Q / P)).sum(axis=-1)
    if (ratio <= 0.0).any():
        raise NonRegularError(f"{gen.name}: log argument {np.min(ratio)!r} <= 0 in divergence")
    return np.log(ratio) - (logv_Q - logv_P)


def l_divergence(gen: Generator, q, p) -> DivergenceValue:
    """T(q|p) computed through the portfolio: log(sum pi_i(p) q_i/p_i) - dphi."""
    P = point_rows(q, p)
    logv = gen.log_gen(P)
    val = _t_euclid(gen, P[0], P[1], gen.portfolio(P[1]), logv[0], logv[1])
    return DivergenceValue(value=float(val), rep="euclidean")


def f_value(gen: Generator, theta):
    """The c-concave potential f(theta) = phi(p(theta)) + psi(theta).

    ``theta`` of shape (m,) gives a float; an (N, m) array of rows gives the
    N values as one array.
    """
    th = coord_rows(theta)
    val = gen.log_gen(from_primal_many(th)) + psi_many(th)
    return float(val) if th.ndim == 1 else val


def l_divergence_primal(gen: Generator, theta, theta2) -> DivergenceValue:
    """T between the points with exponential coordinates theta and theta2."""
    th, th2 = coord_array(theta), coord_array(theta2)
    pi2 = _portfolio_at(gen, th2)
    if np.any(pi2 <= 0.0):
        raise NonRegularError(f"{gen.name}: boundary portfolio in primal divergence")
    f = f_value(gen, np.array([th, th2]))
    val = _log_tilt(pi2, th - th2)[0] - (f[0] - f[1])
    return DivergenceValue(value=float(val), rep="primal")


def l_divergence_dual(gen: Generator, phi, phi2) -> DivergenceValue:
    """T between the points with dual coordinates phi and phi2.

    Requires both arguments to lie in the range of the dual coordinate map;
    the inverse map is evaluated by Newton iteration unless the family has a
    closed form.
    """
    ph, ph2 = coord_array(phi), coord_array(phi2)
    th = inverse_dual_coord(gen, ph)
    th2 = inverse_dual_coord(gen, ph2)
    f = f_value(gen, np.array([th, th2]))
    fstar = psi(th - ph) - f[0]
    fstar2 = psi(th2 - ph2) - f[1]
    val = _log_tilt(_portfolio_at(gen, th), ph - ph2)[0] - (fstar2 - fstar)
    return DivergenceValue(value=float(val), rep="dual")


def bregman(gen, q, p) -> float:
    """Classical linear-approximation error grad . (q - p) - dphi.

    Accepts any generator-like object with ``log_gen`` and ``euclid_grad``;
    with the Shannon entropy as generator this is the relative entropy.
    """
    P = point_rows(q, p)
    g = gen.euclid_grad(P[1])
    return float(g @ (P[0] - P[1]) - (gen.log_gen(P[0]) - gen.log_gen(P[1])))


# ---------------------------------------------------------------------------
# c-transform and the dual potential

def _softmax_psi(X: np.ndarray):
    """Rows of ``from_primal_many(X)`` and ``psi_many(X)`` from one shifted exp."""
    Z = np.concatenate([X, np.zeros((X.shape[0], 1))], axis=1)
    top = Z.max(axis=1, keepdims=True)
    W = np.exp(Z - top)
    total = W.sum(axis=1, keepdims=True)
    return W / total, (top + np.log(total))[:, 0]


def _u_value_grad(gen: Generator, Th: np.ndarray, Ph: np.ndarray):
    """Value and gradient of u(theta) = f(theta) - psi(theta - phi), row by row.

    ``Th`` and ``Ph`` are (N, m) rows; returns u (N,), the gradient (N, m)
    and the softmax rows S (N, m) of theta - phi, from which
    :func:`_u_hess` builds the Hessian.  Total on all of R^m: iterates that
    graze the simplex boundary give u = -inf (rejected by the line search)
    instead of raising.
    """
    P, psi_th = _softmax_psi(Th)
    S, psi_x = _softmax_psi(Th - Ph)
    S = S[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = gen.log_gen(P) + psi_th - psi_x
    return u, gen.portfolio(P)[:, :-1] - S, S


def _u_hess(gen: Generator, Th: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Hessian (N, m, m) of u at the rows ``Th``, whose softmax rows ``S``
    came from :func:`_u_value_grad`."""
    # diag(S) - S S^T, one row at a time
    return gen.dpi_dtheta(Th)[:, :-1] - S[:, :, None] * (np.eye(S.shape[1]) - S[:, None, :])


def _u_value_grad_hess(gen: Generator, Th: np.ndarray, Ph: np.ndarray):
    """u, its gradient and its Hessian at the rows ``Th``: :func:`_u_value_grad`
    followed by :func:`_u_hess`."""
    u, grad, S = _u_value_grad(gen, Th, Ph)
    return u, grad, _u_hess(gen, Th, S)


# rows per block of the batched Newton solve: bounds the (rows, m, m) Hessians
_NEWTON_BLOCK = 512


def _newton_max_u(gen: Generator, Ph: np.ndarray, X0: np.ndarray, gtol=1e-10, maxiter=200):
    """Damped Newton ascent of u(theta) = f(theta) - psi(theta - phi), per row.

    ``Ph`` holds (N, m) dual coordinates and ``X0`` the start of each row.
    Rows are solved together, in blocks of ``_NEWTON_BLOCK``, but each row
    follows its own iteration: a Newton step on the Hessian, shifted when it
    is not negative definite (the gradient if that step is not an ascent
    direction), and an Armijo backtracking line search of up to 60 halvings.
    Each iterate and line-search candidate costs u and its gradient only;
    the Hessian is built once per iteration, after the converged rows have
    left, so a row started at its solution (a warm start along a curve)
    ends on one evaluation without one.
    Definiteness is tested by one batched Cholesky factorization of the
    negated Hessians per iteration; only a block in which it fails computes
    eigenvalues, to shift the rows whose largest one is above -1e-12.
    Below |grad| < 1e-6 an unshifted row takes the full step, since
    objective differences underflow there.  Returns the rows, their u values
    and a per-row mask of the rows that converged (|grad| < gtol, or
    stagnation at the float floor with |grad| < 1e-8).
    """
    if Ph.shape[0] <= _NEWTON_BLOCK:
        return _newton_block(gen, Ph, X0, gtol, maxiter)
    blocks = [
        _newton_block(gen, Ph[lo : lo + _NEWTON_BLOCK], X0[lo : lo + _NEWTON_BLOCK], gtol, maxiter)
        for lo in range(0, Ph.shape[0], _NEWTON_BLOCK)
    ]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (np.linalg.norm(X, axis=1) in three calls)."""
    return np.sqrt((X * X).sum(axis=1))


def _newton_block(gen, Ph, X0, gtol, maxiter):
    """One block of :func:`_newton_max_u`; rows leave the iteration as they end."""
    N, m = Ph.shape
    Th, U, ok = np.empty((N, m)), np.empty(N), np.zeros(N, dtype=bool)
    idx, th, ph = np.arange(N), np.array(X0, dtype=float), Ph
    u, grad, S = _u_value_grad(gen, th, ph)
    eye = np.eye(m)

    def retire(rows, converged):
        """Write out the ending rows; the others stay in the iteration."""
        nonlocal idx, th, ph, u, grad, S
        out = idx[rows]
        Th[out], U[out], ok[out] = th[rows], u[rows], converged[rows]
        keep = ~rows
        idx, th, ph = idx[keep], th[keep], ph[keep]
        u, grad, S = u[keep], grad[keep], S[keep]
        return keep

    for it in range(maxiter + 1):
        if idx.size == 0:
            break
        gnorm = _row_norms(grad)
        if it == maxiter:
            Th[idx], U[idx], ok[idx] = th, u, gnorm < gtol
            break
        gmin = gnorm.min()
        if gmin < gtol:
            conv = gnorm < gtol
            if conv.all():
                Th[idx], U[idx], ok[idx] = th, u, True
                break
            gnorm = gnorm[retire(conv, conv)]
        # the Hessian only of the rows that step
        hess = _u_hess(gen, th, S)
        # Newton step on the concavified Hessian; shift if not negative definite.
        # One batched Cholesky of -sym - 1e-12 I fails for the whole stack when
        # any row has an eigenvalue above -1e-12; only then are eigenvalues needed
        sym = (hess + hess.transpose(0, 2, 1)) / 2
        A, negdef = hess, True
        try:
            np.linalg.cholesky(-sym - 1e-12 * eye)
        except np.linalg.LinAlgError:
            eigmax = np.linalg.eigvalsh(sym)[:, -1]
            negdef = eigmax <= -1e-12
            A = hess - np.where(negdef, 0.0, eigmax + 1e-8)[:, None, None] * eye
        try:
            step = np.linalg.solve(A, -grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = grad.copy()
        slope = (step * grad).sum(axis=1)
        if slope.min() < 0:
            uphill = slope < 0
            step[uphill] = grad[uphill]
            slope = (step * grad).sum(axis=1)
        cand = th + step
        u_new, grad_new, S_new = _u_value_grad(gen, cand, ph)
        take = u_new >= u + 1e-4 * slope
        # rows that end this iteration, and whether they count as converged
        ends, conv = np.zeros(idx.size, dtype=bool), np.zeros(idx.size, dtype=bool)
        # quadratic convergence zone: objective differences underflow, so
        # skip the line search and trust the full Newton step
        quad = np.zeros(idx.size, dtype=bool)
        if gmin < 1e-6:
            quad = (gnorm < 1e-6) & negdef
            # stagnating at the float floor counts as converged
            ends = quad & (_row_norms(grad_new) >= gnorm)
            conv = ends & (gnorm < 1e-8)
            take = np.where(quad, ~ends, take)
        if take.all():
            th, u, grad, S = cand, u_new, grad_new, S_new
        else:
            th[take], u[take], grad[take], S[take] = (
                cand[take], u_new[take], grad_new[take], S_new[take]
            )
            pending = np.flatnonzero(~take & ~quad)
            alpha = 1.0
            for _ in range(59):
                if pending.size == 0:
                    break
                alpha *= 0.5
                cand = th[pending] + alpha * step[pending]
                uc, gc, Sc = _u_value_grad(gen, cand, ph[pending])
                hit = uc >= u[pending] + 1e-4 * alpha * slope[pending]
                rows = pending[hit]
                th[rows], u[rows], grad[rows], S[rows] = cand[hit], uc[hit], gc[hit], Sc[hit]
                take[rows] = True
                pending = pending[~hit]
            # line search exhausted
            ends[pending] = True
            conv[pending] = _row_norms(grad[pending]) < 1e-8
        # a line-search row that runs off past |theta| = 1e6 (or to nan) fails;
        # rows are looked at one by one only when the block's total is that large
        if not (th * th).sum() <= 1e12:
            ends |= take & ~quad & ~(_row_norms(th) <= 1e6)
        if ends.any():
            retire(ends, conv)
    return Th, U, ok


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call; a module-level
    name, so that tests and the benchmark's tracer can replace or wrap it."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def c_transform_argmin(gen: Generator, phi, x0=None) -> np.ndarray:
    """Minimizer theta of psi(theta - phi) - f(theta).

    Damped Newton (:func:`_newton_max_u` on one row) from ``x0``, from the
    family's closed-form inverse when available, and from the barycenter;
    Nelder-Mead as a last resort.  The objective is the negative of a
    strictly quasi-concave function, so the minimizer is unique when it
    exists.
    """
    ph = coord_array(phi)
    starts = [np.zeros_like(ph)]
    closed = gen.dual_map_inverse(ph)
    if closed is not None:
        starts.insert(0, np.asarray(closed, dtype=float))
    if x0 is not None:
        starts.insert(0, coord_array(x0))
    best = None
    for s in starts:
        th, u, ok = _newton_max_u(gen, ph[None], s[None])
        if ok[0]:
            return th[0]
        if best is None or u[0] > best[1]:
            best = (th[0], u[0])
    res = minimize(
        lambda t: psi(t - ph) - f_value(gen, t),
        best[0],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    th = res.x
    _, grad, _ = _u_value_grad(gen, th[None], ph[None])
    if np.linalg.norm(grad) > 1e-7:
        raise ConvergenceError(
            f"{gen.name}: c-transform minimization did not converge at phi={ph}"
        )
    return th


def c_transform(gen: Generator, phi, x0=None) -> float:
    """The conjugate potential f*(phi) = inf_theta psi(theta - phi) - f(theta)."""
    ph = coord_array(phi)
    th = c_transform_argmin(gen, ph, x0=x0)
    return float(psi(th - ph) - f_value(gen, th))


def inverse_dual_coord(gen: Generator, phi, x0=None) -> np.ndarray:
    """Exponential coordinate of the point whose dual coordinate is ``phi``.

    ``phi`` is one dual coordinate (m,) or an (N, m) array of rows, answered
    row for row.  A family's closed-form inverse maps all rows at once.
    Without one, a single point is solved by :func:`c_transform_argmin`,
    started at ``x0`` if given.  Rows are solved together by one batched
    damped Newton (:func:`_newton_max_u`); each row starts at ``x0`` (one
    start for every row, or one per row) or, by default, at its own dual
    coordinate.  The rows that the batch leaves unconverged go to
    :func:`c_transform_argmin` one at a time; if one of them still fails,
    the :class:`ConvergenceError` carries its ``row``.
    """
    ph = coord_rows(phi)
    closed = gen.dual_map_inverse(ph)
    if closed is not None:
        return np.asarray(closed, dtype=float)
    if ph.ndim == 1:
        return c_transform_argmin(gen, ph, x0=x0)
    start = ph if x0 is None else np.broadcast_to(coord_rows(x0), ph.shape)
    th, _, ok = _newton_max_u(gen, ph, start)
    for j in np.flatnonzero(~ok):
        try:
            th[j] = c_transform_argmin(gen, ph[j], x0=th[j])
        except ConvergenceError as exc:
            raise ConvergenceError(str(exc), row=int(j)) from exc
    return th


# ---------------------------------------------------------------------------
# c-divergences

def c_divergence(gen: Generator, p, p2) -> float:
    """D(p|p2) = c(theta, phi2) - f(theta) - f*(phi2); equals T(p|p2)."""
    th, th2 = to_primal_many(point_rows(p, p2))
    f = f_value(gen, np.array([th, th2]))
    ph2 = _dual_rows(th2, _portfolio_at(gen, th2), gen.name)
    fstar2 = psi(th2 - ph2) - f[1]
    return float(psi(th - ph2) - f[0] - fstar2)


def c_divergence_dual(gen: Generator, p, p2) -> float:
    """D*(p|p2) = c(theta2, phi) - f*(phi) - f(theta2); equals T(p2|p)."""
    th, th2 = to_primal_many(point_rows(p, p2))
    f = f_value(gen, np.array([th, th2]))
    ph = _dual_rows(th, _portfolio_at(gen, th), gen.name)
    fstar = psi(th - ph) - f[0]
    return float(psi(th2 - ph) - fstar - f[1])


def pyth_transport_gap(gen: Generator, p, q, r) -> float:
    """Cost difference between the cyclic and transposition perturbations.

    Couples (q->p's partner, r->q's partner) against (q->q's, r->p's); the
    result coincides with T(q|p) + T(r|q) - T(r|p).
    """
    Th = to_primal_many(point_rows(p, q, r))
    ph_p, ph_q = _dual_rows(Th[:2], _portfolio_at(gen, Th[:2]), gen.name)
    th_q, th_r = Th[1], Th[2]
    c = psi_many(np.array([th_q - ph_p, th_r - ph_q, th_r - ph_p, th_q - ph_q]))
    return float(c[0] + c[1] - c[2] - c[3])


# ---------------------------------------------------------------------------
# monotonicity certificates

_CM_SLACK = 1e-10
_MCM_SLACK = 1e-12


def optimal_assignment(P_support, Q_support):
    """Optimal equal-mass assignment between two supports of N points each.

    Returns ``(assignment, cost)``: ``assignment[i]`` is the index of the
    target point coupled to source i, and ``cost`` the total transport cost.
    One O(N^3) solve by ``scipy.optimize.linear_sum_assignment``.
    """
    from scipy.optimize import linear_sum_assignment

    P = np.atleast_2d(np.asarray(P_support, dtype=float))
    Q = np.atleast_2d(np.asarray(Q_support, dtype=float))
    if Q.shape[0] != P.shape[0]:
        raise ValueError("equal-mass assignment needs equally sized supports")
    # cost matrix C[i, j] = c(theta_i, phi_j)
    C = psi_many(P[:, None, :] - Q[None, :, :])
    rows, cols = linear_sum_assignment(C)
    return cols, float(C[rows, cols].sum())


def is_c_cyclical_monotone(sample: CouplingSample) -> bool:
    """Test c-cyclical monotonicity of a finite coupling over every cycle.

    By Rockafellar (1966, Pacific J. Math. 17) a finite coupling is
    c-cyclically monotone exactly when pairing each theta with its own phi
    is an optimal assignment, so one :func:`optimal_assignment` solve checks
    the cycles of every length at once.  The diagonal coupling may cost at
    most 1e-10 more than the optimum.
    """
    thetas = np.array([np.asarray(t, dtype=float) for t, _ in sample.pairs])
    phis = np.array([np.asarray(f, dtype=float) for _, f in sample.pairs])
    _, best = optimal_assignment(thetas, phis)
    return bool(psi_many(thetas - phis).sum() <= best + _CM_SLACK)


def is_mcm(portfolio_map, cycle) -> bool:
    """Multiplicative cyclical monotonicity of a portfolio map along a cycle.

    ``cycle`` must close (last point equals first).  The product of the
    one-step relative returns must be at least one.
    """
    pts = point_rows(*cycle)
    if not np.allclose(pts[0], pts[-1], atol=0.0, rtol=0.0):
        raise ValueError("cycle must close: last point must equal the first")
    log_product = 0.0
    for t in range(len(pts) - 1):
        w = np.asarray(portfolio_map(pts[t]), dtype=float)
        log_product += np.log(w @ (pts[t + 1] / pts[t]))
    return bool(log_product >= -_MCM_SLACK)
