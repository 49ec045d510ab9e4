"""Independent reference formulas for the generator families the benchmark uses.

Every output check compares lgeo's result with values computed here, from
the closed forms in the paper, without calling lgeo.  Functions take arrays
of shape ``(..., n)`` (simplex points) or ``(..., n-1)`` (coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)


def softmax_tail(theta: np.ndarray) -> np.ndarray:
    """Simplex point with exponential coordinates ``theta`` (last coordinate 0)."""
    theta = np.asarray(theta, dtype=float)
    z = np.concatenate([theta, np.zeros(theta.shape[:-1] + (1,))], axis=-1)
    z = z - z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


def psi(x: np.ndarray) -> np.ndarray:
    """``log(1 + sum exp(x))`` along the last axis."""
    x = np.asarray(x, dtype=float)
    z = np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
    m = z.max(axis=-1)
    return m + np.log(np.exp(z - m[..., None]).sum(axis=-1))


def primal(P: np.ndarray) -> np.ndarray:
    """Exponential coordinates ``log(p_i / p_n)``."""
    L = np.log(np.asarray(P, dtype=float))
    return L[..., :-1] - L[..., -1:]


@dataclass(frozen=True)
class Family:
    """A generator as the benchmark knows it: its CLI spec and its formulas.

    ``kind`` is ``cw`` (constant weights ``w``), ``dw`` (diversity, ``lam``),
    ``gdw`` (weighted diversity, ``lam`` and ``w``) or ``mix`` (``parts`` is a
    tuple of ``(coefficient, Family)``).
    """

    kind: str
    n: int
    lam: float = 0.0
    w: tuple = ()
    parts: tuple = ()

    @property
    def label(self) -> str:
        return f"{self.kind} n={self.n}"

    def spec(self) -> str:
        """Generator spec string for the ``lgeo`` command line."""
        if self.kind == "cw":
            return "cw:" + ",".join(repr(v) for v in self.w)
        if self.kind == "dw":
            return f"dw:{self.lam!r}"
        if self.kind == "gdw":
            return f"gdw:{self.lam!r}:" + ",".join(repr(v) for v in self.w)
        return "mix:" + "+".join(f"{c!r}*{g.spec()}" for c, g in self.parts)

    def build(self, lgeo):
        """The same generator as an lgeo object."""
        if self.kind == "cw":
            return lgeo.ConstantWeighted(list(self.w))
        if self.kind == "dw":
            return lgeo.DiversityWeighted(self.lam)
        if self.kind == "gdw":
            return lgeo.GeneralizedDiversityWeighted(list(self.w), self.lam)
        return lgeo.ConvexCombination([g.build(lgeo) for _, g in self.parts],
                                      [c for c, _ in self.parts])

    # -- formulas -----------------------------------------------------------

    def _wvec(self) -> np.ndarray:
        w = np.array(self.w, dtype=float)
        return w / w.sum() if self.kind == "cw" else w

    def log_gen(self, P) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        if self.kind == "cw":
            return np.log(P) @ self._wvec()
        if self.kind == "dw":
            return np.log(np.sum(P**self.lam, axis=-1)) / self.lam
        if self.kind == "gdw":
            return np.log(P**self.lam @ self._wvec()) / self.lam
        return sum(c * g.log_gen(P) for c, g in self.parts)

    def portfolio(self, P) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        if self.kind == "cw":
            return np.broadcast_to(self._wvec(), P.shape).copy()
        if self.kind in ("dw", "gdw"):
            Q = P**self.lam
            if self.kind == "gdw":
                Q = Q * self._wvec()
            return Q / Q.sum(axis=-1, keepdims=True)
        return sum(c * g.portfolio(P) for c, g in self.parts)

    def dpi_dtheta(self, theta) -> np.ndarray:
        """d pi_i / d theta_j, shape (..., n, n-1)."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "cw":
            return np.zeros(theta.shape[:-1] + (self.n, self.n - 1))
        if self.kind in ("dw", "gdw"):
            pi = self.portfolio(softmax_tail(theta))
            return self.lam * pi[..., :, None] * (np.eye(self.n)[:, :-1] - pi[..., None, :-1])
        return sum(c * g.dpi_dtheta(theta) for c, g in self.parts)

    def f(self, theta) -> np.ndarray:
        """The c-concave potential ``phi(p(theta)) + psi(theta)``."""
        return self.log_gen(softmax_tail(theta)) + psi(theta)

    def dual(self, theta) -> np.ndarray:
        """Dual coordinates ``theta_i - log(pi_i / pi_n)``."""
        theta = np.asarray(theta, dtype=float)
        L = np.log(self.portfolio(softmax_tail(theta)))
        return theta - (L[..., :-1] - L[..., -1:])

    def inverse_dual(self, phi, theta0) -> np.ndarray:
        """Exponential coordinates with dual coordinates ``phi`` (row-wise).

        Closed form where the family has one; otherwise damped Newton on the
        dual map with its analytic Jacobian, started at ``theta0`` (which
        broadcasts against ``phi``), each row until it stops improving.
        """
        phi = np.asarray(phi, dtype=float)
        if self.kind == "cw":
            w = self._wvec()
            return phi + np.log(w[:-1] / w[-1])
        if self.kind == "dw":
            return phi / (1.0 - self.lam)
        if self.kind == "gdw":
            w = self._wvec()
            return (phi + np.log(w[:-1] / w[-1])) / (1.0 - self.lam)
        m = self.n - 1
        ph = phi.reshape(-1, m)
        th = np.broadcast_to(np.asarray(theta0, dtype=float), phi.shape).reshape(-1, m).copy()
        err = np.max(np.abs(self.dual(th) - ph), axis=1)
        tol = 4 * EPS * (1.0 + np.max(np.abs(ph), axis=1))
        todo = err > tol
        eye = np.eye(m)
        for _ in range(100):
            if not todo.any():
                break
            t, p = th[todo], ph[todo]
            res = self.dual(t) - p
            pi = self.portfolio(softmax_tail(t))
            dpi = self.dpi_dtheta(t)
            J = eye - dpi[:, :-1] / pi[:, :-1, None] + dpi[:, -1:] / pi[:, -1:, None]
            step = np.linalg.solve(J, -res[..., None])[..., 0]
            e0 = err[todo]
            new_t, new_e = t.copy(), e0.copy()
            pending = np.ones(t.shape[0], dtype=bool)
            alpha = 1.0
            while pending.any() and alpha > 1e-6:
                cand = t[pending] + alpha * step[pending]
                e = np.max(np.abs(self.dual(cand) - p[pending]), axis=1)
                ok = e < e0[pending]
                idx = np.flatnonzero(pending)[ok]
                new_t[idx], new_e[idx] = cand[ok], e[ok]
                pending[idx] = False
                alpha *= 0.5
            rows = np.flatnonzero(todo)
            th[rows], err[rows] = new_t, new_e
            # rows that made no progress are at their rounding floor
            todo[rows] = ~pending & (new_e > tol[rows])
        return th.reshape(phi.shape)

    def f_star(self, phi, theta0) -> np.ndarray:
        """Convex conjugate ``f*(phi) = psi(theta - phi) - f(theta)`` at the
        point ``theta`` whose dual coordinate is ``phi``."""
        theta = self.inverse_dual(phi, theta0)
        return psi(theta - phi) - self.f(theta)

    def divergence(self, Q, P):
        """``T(q|p) = log(sum pi_i(p) q_i / p_i) - (phi(q) - phi(p))`` row-wise.

        Returns the value and a magnitude scale: the sum of the absolute
        values of the terms, whose rounding error bounds the error of T.
        """
        Q = np.asarray(Q, dtype=float)
        P = np.asarray(P, dtype=float)
        lr = np.log(np.sum(self.portfolio(P) * (Q / P), axis=-1))
        lq, lp = self.log_gen(Q), self.log_gen(P)
        return lr - (lq - lp), 1.0 + np.abs(lr) + np.abs(lq) + np.abs(lp)


def antiderivative(func, a: float, b: float, degree: int = 128):
    """``F(x) = int_a^x func`` on [a, b], from the Chebyshev interpolant of a
    smooth, vectorized ``func``; accurate to rounding for analytic weights."""
    poly = np.polynomial.Chebyshev.interpolate(func, degree, domain=[a, b])
    return poly.integ(lbnd=a)


def affine_position(X: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Rows of ``X`` as ``(1 - h) a + h b``: the position ``h`` (least
    squares), ``1 - h`` computed from the distance to ``b``, and each row's
    distance from that line relative to ``|b - a|``."""
    ab = b - a
    den = float(ab @ ab)
    h = (X - a) @ ab / den
    rest = (b - X) @ ab / den
    off = X - (a + h[:, None] * ab)
    return h, rest, np.max(np.abs(off), axis=1) / np.max(np.abs(ab))
