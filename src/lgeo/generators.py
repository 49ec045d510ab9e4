"""Generating functions, their portfolio maps, and duality transforms.

A generator is a function ``phi`` on the open simplex whose exponential
``Phi = exp(phi)`` is concave (Fernholz's "generating function").  Each
generator induces a portfolio map

    pi_i(p) = p_i * (1 + grad_phi(p) . (e_i - p)),

which sends the open simplex into its closure, and a dual coordinate map

    phi_i(theta) = theta_i - log(pi_i / pi_n),

which is the transport map of the associated cost.  The built-in families
(constant-weighted, diversity-weighted and its weighted variant, convex
combinations) carry analytic gradients and portfolio derivatives; anything
defined from ``phi`` alone falls back to central differences.

A generator is *regular* when the tangent-restricted Hessian of ``Phi`` is
strictly negative definite, equivalently when the metric of T
(``_metric_rows``) is positive definite, and the portfolio stays strictly
inside the simplex; :func:`check_regularity` audits both conditions.

Shapes: every generator method takes a plain float array and reduces over
its last axis: ``log_gen``, ``euclid_grad`` and ``portfolio`` take
``(..., n)`` points, ``dpi_dtheta`` ``(..., n-1)`` exponential coordinates.
One point is the 1-d case (``log_gen`` then returns a float), a stack of
points gives the stack of results, and no method validates its input.
Inputs are checked once, at the public functions (:func:`portfolio_theta`,
:func:`dual_coord` and the other maps here, and the functions of the other
modules, through :func:`~lgeo.simplex.point_array` and
:func:`~lgeo.simplex.point_rows`).  Library code below that boundary calls
the generator methods and the private array kernels directly:
``_portfolio_at`` for the portfolio at exponential coordinates,
``_dual_rows`` for the dual coordinates of a stack of points and
``_metric_rows`` for the metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .simplex import (
    DualCoord,
    SimplexPoint,
    coord_array,
    from_primal,
    from_primal_many,
    point_array,
    point_rows,
    psi as _psi,
    softmax_with_tail,
    to_primal_many,
)

__all__ = [
    "Generator",
    "Portfolio",
    "NonRegularError",
    "ZeroGenerator",
    "UniformCrossEntropy",
    "ConstantWeighted",
    "DiversityWeighted",
    "GeneralizedDiversityWeighted",
    "ConvexCombination",
    "CustomGenerator",
    "constant_weighted",
    "diversity_weighted",
    "generalized_diversity_weighted",
    "convex_combination",
    "portfolio",
    "dual_coord",
    "dual_euclidean",
    "jacobian_dual",
    "weights_from_gaussian",
    "check_regularity",
    "RegularityReport",
    "generator_from_config",
    "generator_from_json",
    "generator_to_json",
    "tangent_basis",
]


class NonRegularError(ValueError):
    """Raised when an operation needs regularity the generator lacks."""


# ---------------------------------------------------------------------------
# finite-difference fallbacks

def _fd_hessian(f, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central second differences of ``f`` at ``x``, step ``h[i]`` along axis i."""
    m = x.size
    E = np.diag(h)
    H = np.empty((m, m))
    f0 = f(x)
    for i in range(m):
        H[i, i] = (f(x + E[i]) - 2 * f0 + f(x - E[i])) / h[i] ** 2
        for j in range(i):
            H[i, j] = H[j, i] = (
                f(x + E[i] + E[j]) - f(x + E[i] - E[j]) - f(x - E[i] + E[j]) + f(x - E[i] - E[j])
            ) / (4 * h[i] * h[j])
    return H


def _each_row(one, X):
    """Apply ``one``, defined on a single point, to every row of ``X``.

    The fallbacks below are defined one point at a time; this gives them the
    ``(..., n)`` shape contract of the closed-form families.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        return one(X)
    out = np.array([one(x) for x in X.reshape(-1, X.shape[-1])])
    return out.reshape(X.shape[:-1] + out.shape[1:])


def _softmax_dpi(pi: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """Derivative, shape (..., n, n-1), of ``pi = softmax_with_tail(lam * theta + c)``."""
    eye = np.eye(pi.shape[-1])[:, :-1]
    return lam * pi[..., :, None] * (eye - pi[..., None, :-1])


class Generator:
    """Base class: implement ``log_gen``; everything else has a fallback.

    Every method takes plain arrays of the shapes in the module docstring
    and validates nothing.
    """

    name = "generator"

    def log_gen(self, P):
        """Value of the log generating function ``phi`` at each point."""
        raise NotImplementedError

    def euclid_grad(self, P) -> np.ndarray:
        """Euclidean gradient of ``phi`` (any smooth extension off the simplex).

        Fallback: central differences of the scale-invariant extension
        ``phi(x / sum(x))``, step ``min(1e-6, p_i / 2)`` along axis i, in one
        ``log_gen`` call.
        """
        P = np.asarray(P, dtype=float)
        n = P.shape[-1]
        h = np.minimum(1e-6, P / 2)
        E = h[..., :, None] * np.eye(n)
        X = P[..., None, :] + np.concatenate([E, -E], axis=-2)
        F = self.log_gen(X / X.sum(axis=-1, keepdims=True))
        return (F[..., :n] - F[..., n:]) / (2 * h)

    def portfolio(self, P) -> np.ndarray:
        """Portfolio weights ``pi_i = p_i (1 + grad . (e_i - p))`` at each point."""
        P = np.asarray(P, dtype=float)
        g = self.euclid_grad(P)
        return P * (1.0 + g - (g * P).sum(axis=-1, keepdims=True))

    def dpi_dtheta(self, Theta) -> np.ndarray:
        """Derivative of the portfolio in exponential coordinates, shape (..., n, n-1).

        Generic route: the head rows are the Hessian of the potential
        f = phi + psi (whose gradient is the portfolio), taken by central
        second differences; the last row follows from the weights summing to
        one.  The step, 3e-4 times max(1, |theta|), is near eps^(1/4), where
        truncation and rounding errors of a second difference balance.
        """

        def f(x):
            return self.log_gen(softmax_with_tail(x)) + _psi(x)

        def one(th):
            H = _fd_hessian(f, th, np.full(th.size, 3e-4 * max(1.0, np.linalg.norm(th))))
            return np.vstack([H, -H.sum(axis=0)])

        return _each_row(one, Theta)

    def dual_map_inverse(self, phi) -> np.ndarray | None:
        """Closed-form inverse of the dual coordinate map, if the family has one.

        The closed forms are elementwise affine maps of plain ``(..., n-1)``
        arrays; callers validate ``phi``.
        """
        return None

    # -- config -------------------------------------------------------------

    def to_config(self) -> dict:
        raise NotImplementedError(f"{self.name} is not config-serializable")

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class ZeroGenerator(Generator):
    """phi = 0: generates the market portfolio ``pi(p) = p`` (not regular)."""

    name = "market"

    def log_gen(self, P):
        # [()] turns the 0-d result of one point into a float
        return np.zeros(P.shape[:-1])[()]

    def euclid_grad(self, P) -> np.ndarray:
        return np.zeros(P.shape)

    def portfolio(self, P) -> np.ndarray:
        return np.array(P, dtype=float)

    def dpi_dtheta(self, Theta) -> np.ndarray:
        return _softmax_dpi(from_primal_many(Theta))

    def to_config(self) -> dict:
        return {"kind": "market"}


class UniformCrossEntropy(Generator):
    """Equal-weight cross-entropy ``phi(p) = mean(log p)``, any dimension.

    Generates the equal-weighted portfolio; its dual coordinate map is the
    identity.  Used as the t = 0 end of displacement interpolation.
    """

    name = "equal"

    def log_gen(self, P):
        return np.mean(np.log(P), axis=-1)

    def euclid_grad(self, P) -> np.ndarray:
        return 1.0 / (P.shape[-1] * P)

    def portfolio(self, P) -> np.ndarray:
        return np.full(P.shape, 1.0 / P.shape[-1])

    def dpi_dtheta(self, Theta) -> np.ndarray:
        m = Theta.shape[-1]
        return np.zeros(Theta.shape[:-1] + (m + 1, m))

    def dual_map_inverse(self, phi) -> np.ndarray:
        return np.array(phi, dtype=float)

    def to_config(self) -> dict:
        return {"kind": "equal"}


class ConstantWeighted(Generator):
    """Cross-entropy generator ``phi(p) = sum_i w_i log p_i``, constant weights."""

    def __init__(self, weights):
        self.weights = point_array(weights)
        self.name = "cw[" + ",".join(f"{w:g}" for w in self.weights) + "]"

    def log_gen(self, P):
        # an elementwise product summed over the last axis rounds the same
        # for every row count, unlike a matrix product
        return (np.log(P) * self.weights).sum(axis=-1)

    def euclid_grad(self, P) -> np.ndarray:
        return self.weights / P

    def portfolio(self, P) -> np.ndarray:
        return np.full(P.shape, self.weights)

    def dpi_dtheta(self, Theta) -> np.ndarray:
        n = self.weights.size
        return np.zeros(Theta.shape[:-1] + (n, n - 1))

    def dual_map_inverse(self, phi) -> np.ndarray:
        w = self.weights
        return np.asarray(phi, dtype=float) + np.log(w[:-1] / w[-1])

    def to_config(self) -> dict:
        return {"kind": "constant", "weights": self.weights.tolist()}


class DiversityWeighted(Generator):
    """Generator ``phi(p) = log(sum_j p_j^lam) / lam`` with ``0 < lam < 1``."""

    def __init__(self, lam: float):
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {lam}")
        self.lam = float(lam)
        self.name = f"dw[{self.lam:g}]"

    def log_gen(self, P):
        return np.log(np.sum(P**self.lam, axis=-1)) / self.lam

    def euclid_grad(self, P) -> np.ndarray:
        Q = P ** (self.lam - 1.0)
        return Q / (Q * P).sum(axis=-1, keepdims=True)

    def portfolio(self, P) -> np.ndarray:
        Q = P**self.lam
        return Q / Q.sum(axis=-1, keepdims=True)

    def dpi_dtheta(self, Theta) -> np.ndarray:
        # pi in exponential coordinates is a softmax of lam * theta
        return _softmax_dpi(from_primal_many(self.lam * Theta), self.lam)

    def dual_map_inverse(self, phi) -> np.ndarray:
        return np.asarray(phi, dtype=float) / (1.0 - self.lam)

    def to_config(self) -> dict:
        return {"kind": "diversity", "lam": self.lam}


class GeneralizedDiversityWeighted(Generator):
    """Weighted variant ``phi(p) = log(sum_j w_j p_j^lam) / lam``."""

    def __init__(self, weights, lam: float):
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {lam}")
        self.w = w
        self.lam = float(lam)
        self.name = f"gdw[{self.lam:g}]"

    def log_gen(self, P):
        return np.log((P**self.lam * self.w).sum(axis=-1)) / self.lam

    def euclid_grad(self, P) -> np.ndarray:
        Q = self.w * P ** (self.lam - 1.0)
        return Q / (Q * P).sum(axis=-1, keepdims=True)

    def portfolio(self, P) -> np.ndarray:
        Q = self.w * P**self.lam
        return Q / Q.sum(axis=-1, keepdims=True)

    def dpi_dtheta(self, Theta) -> np.ndarray:
        shift = np.log(self.w[:-1] / self.w[-1])
        return _softmax_dpi(from_primal_many(self.lam * Theta + shift), self.lam)

    def dual_map_inverse(self, phi) -> np.ndarray:
        shift = np.log(self.w[:-1] / self.w[-1])
        return (np.asarray(phi, dtype=float) + shift) / (1.0 - self.lam)

    def to_config(self) -> dict:
        return {"kind": "generalized_diversity", "lam": self.lam, "weights": self.w.tolist()}


class ConvexCombination(Generator):
    """Pointwise blend: phi = sum_k c_k phi_k, pi = sum_k c_k pi_k."""

    def __init__(self, generators, coeffs):
        if len(generators) == 0:
            raise ValueError("need at least one generator to combine")
        c = np.asarray(coeffs, dtype=float)
        if c.size != len(generators):
            raise ValueError("one coefficient per generator required")
        if np.any(c < 0) or abs(c.sum() - 1.0) > 1e-12:
            raise ValueError("coefficients must be a point of the closed simplex")
        self.parts = list(generators)
        self.coeffs = c
        self.name = "+".join(f"{ck:g}*{g.name}" for ck, g in zip(c, self.parts))

    def _blend(self, values):
        """sum_k c_k v_k over the parts' values v_k, in part order; unlike
        sum(), it starts at the first term instead of adding it to 0."""
        total = None
        for c, v in zip(self.coeffs, values):
            total = c * v if total is None else total + c * v
        return total

    def log_gen(self, P):
        return self._blend(g.log_gen(P) for g in self.parts)

    def euclid_grad(self, P) -> np.ndarray:
        return self._blend(g.euclid_grad(P) for g in self.parts)

    def portfolio(self, P) -> np.ndarray:
        return self._blend(g.portfolio(P) for g in self.parts)

    def dpi_dtheta(self, Theta) -> np.ndarray:
        return self._blend(g.dpi_dtheta(Theta) for g in self.parts)

    def dual_map_inverse(self, phi):
        if len(self.parts) == 1:
            return self.parts[0].dual_map_inverse(phi)
        return None

    def to_config(self) -> dict:
        return {
            "kind": "combination",
            "coeffs": self.coeffs.tolist(),
            "components": [g.to_config() for g in self.parts],
        }


class CustomGenerator(Generator):
    """Generator defined by a callable phi of one point, and optionally its
    gradient; both are applied row by row, other derivatives are central
    differences."""

    def __init__(self, func, grad=None, name="custom"):
        self._func = func
        self._grad = grad
        self.name = name

    def log_gen(self, P):
        return _each_row(lambda p: float(self._func(p)), P)

    def euclid_grad(self, P) -> np.ndarray:
        if self._grad is None:
            return super().euclid_grad(P)
        return _each_row(lambda p: np.asarray(self._grad(p), dtype=float), P)


# ---------------------------------------------------------------------------
# constructors matching the config vocabulary

def constant_weighted(weights) -> ConstantWeighted:
    return ConstantWeighted(weights)


def diversity_weighted(lam: float) -> DiversityWeighted:
    return DiversityWeighted(lam)


def generalized_diversity_weighted(weights, lam: float) -> GeneralizedDiversityWeighted:
    return GeneralizedDiversityWeighted(weights, lam)


def convex_combination(generators, coeffs) -> ConvexCombination:
    return ConvexCombination(generators, coeffs)


def equal_weighted(n: int) -> ConstantWeighted:
    return ConstantWeighted(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class Portfolio:
    """Portfolio weights: a point of the *closed* simplex.

    Boundary weights are legitimate for non-regular generators, so this is
    deliberately laxer than :class:`~lgeo.simplex.SimplexPoint`.
    """

    weights: np.ndarray

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float).copy()
        if np.any(w < -1e-9):
            raise NonRegularError(f"negative portfolio weight {w.min()!r}")
        s = w.sum()
        if abs(s - 1.0) > 1e-8:
            raise NonRegularError(f"portfolio weights sum to {s!r}")
        w = np.clip(w, 0.0, None) / np.clip(w, 0.0, None).sum()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.weights, dtype=dtype)

    @property
    def interior(self) -> bool:
        return bool(np.all(self.weights > 0.0))


# ---------------------------------------------------------------------------
# duality maps

def portfolio(gen: Generator, p) -> Portfolio:
    """Portfolio of ``gen`` at ``p``, validated to sum to one."""
    return Portfolio(gen.portfolio(np.asarray(p, dtype=float)))


def _portfolio_at(gen: Generator, Theta: np.ndarray) -> np.ndarray:
    """Portfolio weights at (..., n-1) rows of exponential coordinates."""
    return gen.portfolio(from_primal_many(Theta))


def _dual_rows(Theta: np.ndarray, Pi: np.ndarray, who: str) -> np.ndarray:
    """Dual coordinates theta - (log pi_{<n} - log pi_n) over (..., n-1) rows
    ``Theta`` with portfolios ``Pi``; a boundary portfolio is a
    :class:`NonRegularError` naming ``who``."""
    if (Pi <= 0.0).any():
        raise NonRegularError(f"{who}: portfolio touches the simplex boundary; dual map undefined")
    return Theta - (np.log(Pi[..., :-1]) - np.log(Pi[..., -1:]))


def portfolio_theta(gen: Generator, theta) -> np.ndarray:
    """Portfolio weights at the point with exponential coordinate ``theta``."""
    return _portfolio_at(gen, coord_array(theta))


def dual_coord(gen: Generator, theta) -> DualCoord:
    """Dual coordinates ``phi_i = theta_i - log(pi_i / pi_n)`` of a point."""
    th = coord_array(theta)
    return DualCoord(_dual_rows(th, _portfolio_at(gen, th), gen.name), generator=gen)


def dual_euclidean(gen: Generator, p) -> SimplexPoint:
    """Dual Euclidean coordinates: the point with exponential coordinate -phi."""
    th = to_primal_many(point_array(p))
    return from_primal(-_dual_rows(th, _portfolio_at(gen, th), gen.name))


def jacobian_dual(gen: Generator, theta) -> np.ndarray:
    """Central-difference Jacobian of the dual coordinate map at ``theta``.

    Singular when its smallest singular value is at most 1e-8 times its
    largest, a test that does not depend on the dimension.  A largest
    singular value below 1 counts as 1: the differences carry rounding noise
    of about 1e-11, so a zero Jacobian (the market generator's) is singular.
    """
    th = coord_array(theta)
    h = 1e-5 * max(1.0, np.linalg.norm(th))
    m = th.size
    # rows th + h e_j, then th - h e_j
    Th = th + h * np.vstack([np.eye(m), -np.eye(m)])
    Ph = _dual_rows(Th, _portfolio_at(gen, Th), gen.name)
    J = (Ph[:m] - Ph[m:]).T / (2 * h)
    sv = np.linalg.svd(J, compute_uv=False)
    if not sv[-1] > 1e-8 * max(sv[0], 1.0):
        raise NonRegularError(f"{gen.name}: singular dual Jacobian (regularity violated)")
    return J


def weights_from_gaussian(a, b, lam: float) -> np.ndarray:
    """Coefficients making the dual map send N(a_i, s^2) means onto b_i.

    Returns the n-vector ``w`` with ``w_n = 1`` and
    ``w_i = exp((1 - lam) a_i - b_i)``, so that
    ``(1 - lam) a_i - log(w_i / w_n) = b_i`` holds exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("a and b must have equal length n-1")
    return np.concatenate([np.exp((1.0 - lam) * a - b), [1.0]])


# ---------------------------------------------------------------------------
# regularity audit

_REL_EIG_CUT = 1e-10


def _metric_rows(Pi: np.ndarray, dpi: np.ndarray) -> np.ndarray:
    """Metric g_ij = pi_i (d_ij - pi_j) - d pi_i / d theta_j, i, j < n.

    The Hessian of T at the diagonal in exponential coordinates, from
    (..., n) portfolios ``Pi`` and their (..., n, n-1) derivatives ``dpi``;
    returns the (..., n-1, n-1) coefficients, not symmetrized.
    """
    pit = Pi[..., :-1, None]
    return pit * np.eye(pit.shape[-2]) - pit * Pi[..., None, :-1] - dpi[..., :-1, :]


def tangent_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the tangent hyperplane sum(u) = 0, shape (n, n-1)."""
    A = np.eye(n) - np.full((n, n), 1.0 / n)
    q, _ = np.linalg.qr(A[:, : n - 1])
    return q


@dataclass
class RegularityReport:
    generator: str
    records: list
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = f"{self.generator}: {len(self.records)} points, "
        if self.passed:
            return head + "all regular"
        return head + f"{len(self.failures)} failures (first: {self.failures[0][1]})"


def check_regularity(gen: Generator, sample_points) -> RegularityReport:
    """Audit strict concavity of Phi and interiority of the portfolio.

    The metric of T is positive definite exactly where the tangent Hessian
    of ``Phi`` is negative definite, so each point's symmetrized metric
    (:func:`_metric_rows`) must have its smallest eigenvalue above
    ``1e-10 * max_{i<n} pi_i``, a cut relative to the ``diag(pi) - pi pi^T``
    term (for the market generator ``dpi_dtheta`` cancels that term, leaving
    rounding residue).  The portfolio weights must lie strictly inside the
    simplex.  The points are validated once and audited by one batched
    eigenvalue call; failures are reported, not raised.
    """
    if len(sample_points) == 0:
        raise ValueError("the regularity audit needs at least one point")
    P = point_rows(*sample_points)
    Pi = gen.portfolio(P)
    G = _metric_rows(Pi, gen.dpi_dtheta(to_primal_many(P)))
    min_eig = np.linalg.eigvalsh((G + np.swapaxes(G, -1, -2)) / 2)[:, 0]
    cut = _REL_EIG_CUT * Pi[:, :-1].max(axis=1)
    definite = min_eig > cut
    interior = (Pi > 0.0).all(axis=1) & (Pi < 1.0).all(axis=1)
    records = [
        {"point": p, "metric_min_eig": float(e), "metric_cut": float(c),
         "hessian_neg_def": bool(d), "portfolio_interior": bool(i)}
        for p, e, c, d, i in zip(P, min_eig, cut, definite, interior)
    ]
    why = np.where(definite, "portfolio leaves the open simplex",
                   "tangent Hessian of Phi not strictly negative definite")
    failures = [(int(k), str(why[k])) for k in np.flatnonzero(~(definite & interior))]
    return RegularityReport(generator=gen.name, records=records, failures=failures)


# ---------------------------------------------------------------------------
# config records

def generator_from_config(cfg: dict) -> Generator:
    """Build a generator from a config record (see each family's to_config)."""
    kind = cfg.get("kind")
    if kind == "market":
        return ZeroGenerator()
    if kind == "equal":
        return UniformCrossEntropy()
    if kind == "constant":
        return ConstantWeighted(cfg["weights"])
    if kind == "diversity":
        return DiversityWeighted(cfg["lam"])
    if kind == "generalized_diversity":
        return GeneralizedDiversityWeighted(cfg["weights"], cfg["lam"])
    if kind == "combination":
        parts = [generator_from_config(sub) for sub in cfg["components"]]
        return ConvexCombination(parts, cfg["coeffs"])
    raise ValueError(f"unknown generator kind {kind!r}")


def generator_to_json(gen: Generator) -> str:
    return json.dumps(gen.to_config())


def generator_from_json(doc: str) -> Generator:
    return generator_from_config(json.loads(doc))
