"""Log-approximation divergences and the transport duality around them.

The central object is the divergence

    T(q | p) = log(1 + grad_phi(p) . (q - p)) - (phi(q) - phi(p)),

the error of the sharpened first-order approximation available to
exponentially concave ``phi``.  It admits three coordinate representations
(Euclidean, primal, dual) that must agree, is reproduced by the cost-based
divergence of the c-concave function ``f = phi + psi``, and certifies
optimality of the induced transport map through cyclical monotonicity,
checked over every cycle by one optimal assignment.

Library code never calls a public function that checks its points or
coordinates, but the unchecked kernel behind it: ``simplex._f_rows`` behind
:func:`f_value` (f* is ``simplex._fstar_rows``, and both c-divergences are
``_c_divergence``), and ``_inverse`` behind :func:`inverse_dual_coord` and
:func:`c_transform_argmin`, the one solver of the inverse dual map theta(phi)
(the argmin of the c-transform).  On (N, m) rows it takes (1) the family's
closed form, if any; else (2) one batched damped Newton solve
(:func:`_newton_max_u`) from the given starts; (3) the rows left unconverged
restart together from their last iterates, then those still left from the
barycenter (``_restart``); (4) Nelder-Mead (:func:`minimize`) from the better
end of those two by u; (5) a row that still fails raises a
:class:`ConvergenceError` with that row.  A row whose theta spans more than
``simplex._SPAN`` fails each stage (``_solved``): there u's softmaxes
saturate and its gradient vanishes with no solution near.

Importing this module loads no scipy.  :func:`optimal_assignment`, and with
it the monotonicity certificates, imports ``scipy.optimize`` on first use,
as does :func:`minimize`, the Nelder-Mead stage of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import (
    Generator,
    NonRegularError,
    _dual_rows,
    _portfolio_at,
)
from .simplex import (
    _SPAN,
    _f_rows,
    _fstar_rows,
    _identity,
    _log_tilt,
    _max_reduce,
    _softmax_psi,
    coord_rows,
    point_rows,
    psi_many,
    row_max,
    row_sum,
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
    """Finite sample of (theta, phi) pairs from a coupling, 1-d of one length."""

    pairs: list

    def __post_init__(self):
        if len(self.pairs) == 0:
            raise ValueError("a coupling sample must be non-empty")
        shapes = {np.shape(x) for th, ph in self.pairs for x in (th, ph)}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"coupling sample entries must be 1-d of one length, not {shapes}")
        if not np.all(np.isfinite(np.asarray(self.pairs, dtype=float))):
            raise ValueError("coupling sample entries must be finite")

    def __len__(self):
        return len(self.pairs)


# ---------------------------------------------------------------------------
# the divergence in its three coordinate systems

def _ratios(Q, P, Pi_P):
    """The rows X = q/p and the ratios pi(p) . q/p over rows q of Q and p of P
    with portfolios ``Pi_P``: the argument of the log in T, and (divided by
    it) the exponentials of the tilt toward q at p."""
    X = Q / P
    return X, row_sum(Pi_P * X)


def _t_euclid(gen: Generator, ratio, logv_Q, logv_P):
    """T(q|p) = log(pi(p) . q/p) - (phi(q) - phi(p)) over rows, from the ratios
    of :func:`_ratios` and the log generator values."""
    # fmin skips NaN, so this is any(ratio <= 0) in one reduction
    if np.fmin.reduce(ratio, None) <= 0.0:
        raise NonRegularError(f"{gen.name}: log argument {np.min(ratio)!r} <= 0 in divergence")
    return np.log(ratio) - (logv_Q - logv_P)


def l_divergence(gen: Generator, q, p) -> DivergenceValue:
    """T(q|p) computed through the portfolio: log(sum pi_i(p) q_i/p_i) - dphi."""
    P = point_rows(q, p, gen=gen)
    logv = gen.log_gen(P)
    _, ratio = _ratios(P[0], P[1], gen.portfolio(P[1]))
    return DivergenceValue(value=float(_t_euclid(gen, ratio, logv[0], logv[1])), rep="euclidean")


def f_value(gen: Generator, theta):
    """The c-concave potential f(theta) = phi(p(theta)) + psi(theta).

    ``theta`` of shape (m,) gives a float; an (N, m) array of rows gives the
    N values as one array.
    """
    th = coord_rows(theta, gen=gen, rows=True)[0]
    val = _f_rows(gen, th)
    return float(val) if th.ndim == 1 else val


def l_divergence_primal(gen: Generator, theta, theta2) -> DivergenceValue:
    """T between the points with exponential coordinates theta and theta2."""
    Th = coord_rows(theta, theta2, gen=gen)
    th, th2 = Th
    pi2 = _portfolio_at(gen, th2)
    if np.any(pi2 <= 0.0):
        raise NonRegularError(f"{gen.name}: boundary portfolio in primal divergence")
    f = _f_rows(gen, Th)
    val = _log_tilt(pi2, th - th2)[0] - (f[0] - f[1])
    return DivergenceValue(value=float(val), rep="primal")


def l_divergence_dual(gen: Generator, phi, phi2) -> DivergenceValue:
    """T between the points with dual coordinates phi and phi2.

    Requires both arguments to lie in the range of the dual coordinate map;
    the inverse map is evaluated by Newton iteration unless the family has a
    closed form.
    """
    Ph = coord_rows(phi, phi2, gen=gen)
    Th = _inverse(gen, Ph)
    fstar, fstar2 = _fstar_rows(gen, Th, Ph)
    val = _log_tilt(_portfolio_at(gen, Th[0]), Ph[0] - Ph[1])[0] - (fstar2 - fstar)
    return DivergenceValue(value=float(val), rep="dual")


def bregman(gen, q, p) -> float:
    """Classical linear-approximation error grad . (q - p) - dphi.

    Accepts any generator-like object with ``log_gen`` and ``euclid_grad``;
    with the Shannon entropy as generator this is the relative entropy.
    """
    P = point_rows(q, p, gen=gen)
    g = gen.euclid_grad(P[1])
    return float(g @ (P[0] - P[1]) - (gen.log_gen(P[0]) - gen.log_gen(P[1])))


# ---------------------------------------------------------------------------
# c-transform and the dual potential

def _u_value_grad(gen: Generator, Th: np.ndarray, Ph: np.ndarray):
    """Value and gradient of u(theta) = f(theta) - psi(theta - phi), row by row.

    ``Th`` and ``Ph`` are (N, m) rows; returns u (N,), the gradient (N, m)
    and the softmax rows S (N, m) of theta - phi, from which
    :func:`_u_hess` builds the Hessian.  Total on all of R^m: iterates that
    graze the simplex boundary give u = -inf (rejected by the line search)
    instead of raising.
    """
    S, psi_x = _softmax_psi(Th - Ph)
    S = S[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        f, P = _f_rows(gen, Th, points=True)
    return f - psi_x, gen.portfolio(P)[:, :-1] - S, S


def _u_hess(gen: Generator, Th: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Hessian (N, m, m) of u at the rows ``Th``, whose softmax rows ``S``
    came from :func:`_u_value_grad`."""
    # diag(S) - S S^T, one row at a time
    return gen.dpi_dtheta(Th)[:, :-1] - S[:, :, None] * (_identity(S.shape[1]) - S[:, None, :])


def _u_value_grad_hess(gen: Generator, Th: np.ndarray, Ph: np.ndarray):
    """u, its gradient and its Hessian at the rows ``Th``: :func:`_u_value_grad`
    followed by :func:`_u_hess`."""
    u, grad, S = _u_value_grad(gen, Th, Ph)
    return u, grad, _u_hess(gen, Th, S)


# rows per block of the batched Newton solve: bounds the (rows, m, m) Hessians
_NEWTON_BLOCK = 512
_NEWTON_GTOL = 1e-10  # a row has converged at |grad| below this
_NEWTON_MAXITER = 200  # Newton steps before the remaining rows stop


def _newton_max_u(gen: Generator, Ph: np.ndarray, X0: np.ndarray):
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
    and a per-row mask of the rows that converged (|grad| < 1e-10, or
    stagnation at the float floor with |grad| < 1e-8).
    """
    if Ph.shape[0] <= _NEWTON_BLOCK:
        return _newton_block(gen, Ph, X0)
    blocks = [
        _newton_block(gen, Ph[lo : lo + _NEWTON_BLOCK], X0[lo : lo + _NEWTON_BLOCK])
        for lo in range(0, Ph.shape[0], _NEWTON_BLOCK)
    ]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (np.linalg.norm(X, axis=1) in three calls)."""
    return np.sqrt(row_sum(X * X))


def _newton_block(gen, Ph, X0):
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

    for it in range(_NEWTON_MAXITER + 1):
        if idx.size == 0:
            break
        gnorm = _row_norms(grad)
        if it == _NEWTON_MAXITER:
            Th[idx], U[idx], ok[idx] = th, u, gnorm < _NEWTON_GTOL
            break
        gmin = gnorm.min()
        if gmin < _NEWTON_GTOL:
            conv = gnorm < _NEWTON_GTOL
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
        slope = row_sum(step * grad)
        if slope.min() < 0:
            uphill = slope < 0
            step[uphill] = grad[uphill]
            slope = row_sum(step * grad)
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


def _inverse(gen: Generator, Ph: np.ndarray, X0: np.ndarray | None = None) -> np.ndarray:
    """The inverse dual map of unchecked (N, m) rows ``Ph`` (module docstring),
    with Newton from the rows of ``X0``, by default from ``Ph``."""
    closed = gen.dual_map_inverse(Ph)
    if closed is not None:
        return np.asarray(closed, dtype=float)
    Th, _, ok = _newton_max_u(gen, Ph, Ph if X0 is None else X0)
    rows = np.flatnonzero(~_solved(Th, ok))
    if rows.size:
        Th[rows] = _restart(gen, Ph[rows], Th[rows], rows)
    return Th


def _solved(Th: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``ok`` without the rows of ``Th`` that span more than ``_SPAN`` (with
    the implicit 0): there the softmaxes of u saturate, and its gradient
    vanishes far from any solution.  One reduction when no row comes near."""
    if _max_reduce(abs(Th), None) > _SPAN / 2:
        ok = ok & (row_max(Th, initial=0.0) + row_max(-Th, initial=0.0) <= _SPAN)
    return ok


def _restart(gen: Generator, Ph: np.ndarray, Th: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Stages 3 to 5 of :func:`_inverse` for the rows ``Ph`` (rows ``rows``
    of the call) that its Newton solve left unconverged at ``Th``."""
    Th, U, ok = _newton_max_u(gen, Ph, Th)
    left = np.flatnonzero(~_solved(Th, ok))
    if left.size:
        th, u, ok = _newton_max_u(gen, Ph[left], np.zeros((left.size, Ph.shape[1])))
        ok = _solved(th, ok)
        better = ok | (u > U[left])
        Th[left[better]] = th[better]
        left = left[~ok]
    for j in left:
        ph = Ph[j][None]
        value = lambda t: -_u_value_grad(gen, t[None], ph)[0][0]  # psi(t - phi) - f(t)
        res = minimize(value, Th[j], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
        x = res.x[None]
        if not _solved(x, _row_norms(_u_value_grad(gen, x, ph)[1]) <= 1e-7)[0]:
            raise ConvergenceError(f"{gen.name}: c-transform minimization did not converge "
                                   f"at phi={ph[0]}", row=int(rows[j]))
        Th[j] = res.x
    return Th


def inverse_dual_coord(gen: Generator, phi, x0=None) -> np.ndarray:
    """Exponential coordinate of the point whose dual coordinate is ``phi``.

    ``phi`` is one dual coordinate (m,) or an (N, m) array of rows, answered
    row for row by the solver of the module docstring, from ``x0`` of the
    same shape (by default ``phi``); one point is solved as a single row, so
    it gets the bits it would get in any array.  A failing row's
    :class:`ConvergenceError` carries its ``row`` (0 for one point).
    """
    ph, x0 = coord_rows(phi, phi if x0 is None else x0, gen=gen, rows=True)
    return _inverse(gen, np.atleast_2d(ph), np.atleast_2d(x0)).reshape(ph.shape)


def _argmin(gen: Generator, phi, x0):
    """One point's checked ``phi`` and its inverse dual image, from ``x0``."""
    ph, x0 = coord_rows(phi, phi if x0 is None else x0, gen=gen)
    return ph, _inverse(gen, ph[None], x0[None])[0]


def c_transform_argmin(gen: Generator, phi, x0=None) -> np.ndarray:
    """Minimizer theta of psi(theta - phi) - f(theta), for one point: the
    one-row case of :func:`inverse_dual_coord`.  The objective is the
    negative of a strictly quasi-concave function, so the minimizer is
    unique when it exists."""
    return _argmin(gen, phi, x0)[1]


def c_transform(gen: Generator, phi, x0=None) -> float:
    """The conjugate potential f*(phi) = inf_theta psi(theta - phi) - f(theta)."""
    ph, th = _argmin(gen, phi, x0)
    return float(_fstar_rows(gen, th, ph))


# ---------------------------------------------------------------------------
# c-divergences

def c_divergence(gen: Generator, p, p2) -> float:
    """D(p|p2) = c(theta, phi2) - f(theta) - f*(phi2); equals T(p|p2)."""
    return _c_divergence(gen, to_primal_many(point_rows(p, p2, gen=gen)))


def c_divergence_dual(gen: Generator, p, p2) -> float:
    """D*(p|p2) = c(theta2, phi) - f*(phi) - f(theta2) = D(p2|p); equals T(p2|p)."""
    return _c_divergence(gen, to_primal_many(point_rows(p, p2, gen=gen))[::-1])


def _c_divergence(gen: Generator, Th: np.ndarray) -> float:
    """D(p|p2) at the unchecked primal rows ``Th`` of p and p2: the objective
    psi(. - phi2) - f of f*(phi2) at theta, less its minimum f*(phi2) at theta2."""
    u = _fstar_rows(gen, Th, _dual_rows(Th[1], _portfolio_at(gen, Th[1]), gen.name))
    return float(u[0] - u[1])


def pyth_transport_gap(gen: Generator, p, q, r) -> float:
    """Cost difference between the cyclic and transposition perturbations.

    Couples (q->p's partner, r->q's partner) against (q->q's, r->p's); the
    result coincides with T(q|p) + T(r|q) - T(r|p).
    """
    Th = to_primal_many(point_rows(p, q, r, gen=gen))
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
    The supports are (N, m) arrays of finite rows of one shape (or one point
    each), checked by :func:`~lgeo.simplex.coord_rows`.  One O(N^3) solve by
    ``scipy.optimize.linear_sum_assignment``.
    """
    return _assignment(*np.atleast_2d(*coord_rows(P_support, Q_support, rows=True)))


def _assignment(P: np.ndarray, Q: np.ndarray):
    """:func:`optimal_assignment` of unchecked (N, m) supports."""
    from scipy.optimize import linear_sum_assignment

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
    thetas, phis = np.asarray(sample.pairs, dtype=float).transpose(1, 0, 2)
    _, best = _assignment(thetas, phis)
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
