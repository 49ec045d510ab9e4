"""Generating functions, their portfolio maps, and duality transforms.

A generator is a function ``phi`` on the open simplex whose exponential
``Phi = exp(phi)`` is concave (Fernholz's "generating function").  Each
generator induces a portfolio map

    pi_i(p) = p_i * (1 + grad_phi(p) . (e_i - p)),

which sends the open simplex into its closure, and a dual coordinate map

    phi_i(theta) = theta_i - log(pi_i / pi_n),

which is the transport map of the associated cost.  The built-in families
carry analytic gradients and portfolio derivatives: constant-weighted
(equal-weighted is its case at weights 1/n), the weighted diversity family
(diversity-weighted is its unit-weight case) and convex combinations.  A
generator defined from ``phi`` alone falls back to central differences,
evaluated on whole arrays.

A generator is *regular* when the tangent-restricted Hessian of ``Phi`` is
strictly negative definite, equivalently when the metric of T
(``_metric_rows``) is positive definite, and the portfolio stays strictly
inside the simplex; :func:`check_regularity` audits both conditions.

Shapes: every generator method takes a plain float array and reduces over
its last axis: ``log_gen``, ``euclid_grad`` and ``portfolio`` take
``(..., n)`` points, ``dpi_dtheta`` ``(..., n-1)`` exponential coordinates.
One point is the 1-d case (``log_gen`` then returns a float), a stack of
points gives the stack of results, and no method validates its input.
Inputs are checked once, at the public functions: points through
:func:`~lgeo.simplex.point_rows` and coordinates through
:func:`~lgeo.simplex.coord_rows`, each against the generator's ``dim`` (the
one number of entries of the points it applies to, or None for any).
Library code below that boundary calls the generator methods and the private
array kernels directly: ``_portfolio_at`` (portfolio at exponential
coordinates), ``_dual_rows`` (dual coordinates) and ``_metric_rows``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .simplex import (
    DualCoord,
    NonRegularError,
    SimplexPoint,
    _f_rows,
    _identity,
    coord_rows,
    from_primal_many,
    point_rows,
    row_sum,
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
    "equal_weighted",
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
]


# ---------------------------------------------------------------------------
# array helpers

def _each_row(one, X):
    """Apply ``one``, defined on one point (a :class:`CustomGenerator`
    callable), to every row of ``X``: the ``(..., n)`` shape contract."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        return one(X)
    out = np.array([one(x) for x in X.reshape(-1, X.shape[-1])])
    return out.reshape(X.shape[:-1] + out.shape[1:])


def _softmax_dpi(pi: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """Derivative, shape (..., n, n-1), of ``pi = softmax_with_tail(lam * theta + c)``."""
    return lam * pi[..., :, None] * (_identity(pi.shape[-1])[:, :-1] - pi[..., None, :-1])


class Generator:
    """Base class: implement ``log_gen``; everything else has a fallback.

    Every method takes plain arrays of the shapes in the module docstring
    and validates nothing.
    """

    name = "generator"
    dim = None  # the one number of entries of the points it applies to; None: any

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
        one.  The step h, 3e-4 times max(1, |theta|), is near eps^(1/4), where
        truncation and rounding errors of a second difference balance.  The
        stencils of all rows (theta, theta +- h e_i and theta +- h e_i +- h e_j
        for j < i) go to ``log_gen`` together, in one call per block of rows of
        at most 2^14 points, a bound on memory at high dimension.
        """
        Theta = np.asarray(Theta, dtype=float)
        m = Theta.shape[-1]
        eye = np.eye(m)
        i, j = np.tril_indices(m, -1)
        # offsets in steps: 0, +e_i, -e_i, then +-e_i +-e_j for each pair j < i
        D = np.concatenate([np.zeros((1, m)), eye, -eye, eye[i] + eye[j], eye[i] - eye[j],
                            eye[j] - eye[i], -eye[i] - eye[j]])
        X = Theta.reshape(-1, m)
        h = 3e-4 * np.maximum(1.0, np.linalg.norm(X, axis=-1))[:, None]
        F = np.empty((len(X), len(D)))
        block = max(1, (1 << 14) // len(D))
        for lo in range(0, len(X), block):
            S = X[lo : lo + block, None, :] + h[lo : lo + block, :, None] * D
            F[lo : lo + block] = _f_rows(self, S)
        f0, fp, fm, fpp, fpm, fmp, fmm = np.split(F, np.cumsum([1, m, m] + 3 * [i.size]), axis=-1)
        H = np.empty((len(X), m, m))
        H[:, range(m), range(m)] = (fp - 2 * f0 + fm) / h**2
        H[:, i, j] = H[:, j, i] = (fpp - fpm - fmp + fmm) / (4 * h * h)
        dpi = np.concatenate([H, -H.sum(axis=-2, keepdims=True)], axis=-2)
        return dpi.reshape(Theta.shape[:-1] + dpi.shape[1:])

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


class ConstantWeighted(Generator):
    """Cross-entropy generator ``phi(p) = sum_i w_i log p_i``, constant weights.

    ``weights`` are the given weights divided by their sum; the config record
    writes them as given, since that division is not idempotent."""

    def __init__(self, weights):
        self.weights = point_rows(weights)[0]
        self.weights.flags.writeable = False  # UniformCrossEntropy caches and shares them
        self._given = np.array(weights, dtype=float)
        self.dim = self.weights.size
        self.name = "cw[" + ",".join(f"{w:g}" for w in self.weights) + "]"

    def _weights(self, n: int) -> np.ndarray:
        """The weights at dimension ``n``: the stored ones."""
        return self.weights

    def log_gen(self, P):
        # an elementwise product summed over the last axis rounds the same
        # for every row count, unlike a matrix product
        return row_sum(np.log(P) * self._weights(P.shape[-1]))

    def euclid_grad(self, P) -> np.ndarray:
        return self._weights(P.shape[-1]) / P

    def portfolio(self, P) -> np.ndarray:
        return np.full(P.shape, self._weights(P.shape[-1]))

    def dpi_dtheta(self, Theta) -> np.ndarray:
        m = Theta.shape[-1]
        return np.zeros(Theta.shape[:-1] + (m + 1, m))

    def dual_map_inverse(self, phi) -> np.ndarray:
        w = self._weights(np.shape(phi)[-1] + 1)
        return np.asarray(phi, dtype=float) + np.log(w[:-1] / w[-1])

    def to_config(self) -> dict:
        return {"kind": "constant", "weights": self._given.tolist()}


class UniformCrossEntropy(ConstantWeighted):
    """Equal-weight cross-entropy ``phi(p) = mean(log p)``, any dimension: the
    weights at n entries are those of ``equal_weighted(n)``.  Generates the
    equal-weighted portfolio, its dual coordinate map is the identity, and it
    is the t = 0 end of displacement interpolation."""

    name = "equal"

    def __init__(self):
        pass  # no stored weights

    @staticmethod
    @functools.cache
    def _weights(n: int) -> np.ndarray:
        return equal_weighted(n).weights  # read-only; 1/n renormalized, so not always 1/n

    def to_config(self) -> dict:
        return {"kind": "equal"}


class GeneralizedDiversityWeighted(Generator):
    """Weighted variant ``phi(p) = log(sum_j w_j p_j^lam) / lam``; a scalar
    ``w`` weighs every asset alike, in any dimension."""

    def __init__(self, weights, lam: float):
        w = np.asarray(weights, dtype=float)
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError(f"weights must be finite and strictly positive, got {w.tolist()}")
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {lam}")
        self.w = w
        self.dim = w.size if w.ndim else None
        self.shift = np.log(w[:-1] / w[-1]) if w.ndim else 0.0
        self.lam = float(lam)
        self.name = f"gdw[{self.lam:g}]"

    def log_gen(self, P):
        return np.log(row_sum(P**self.lam * self.w)) / self.lam

    def euclid_grad(self, P) -> np.ndarray:
        Q = self.w * P ** (self.lam - 1.0)
        return Q / row_sum(Q * P, keepdims=True)

    def portfolio(self, P) -> np.ndarray:
        Q = self.w * P**self.lam
        return Q / row_sum(Q, keepdims=True)

    def dpi_dtheta(self, Theta) -> np.ndarray:
        # pi in exponential coordinates is a softmax of lam * theta + shift
        return _softmax_dpi(from_primal_many(self.lam * Theta + self.shift), self.lam)

    def dual_map_inverse(self, phi) -> np.ndarray:
        return (np.asarray(phi, dtype=float) + self.shift) / (1.0 - self.lam)

    def to_config(self) -> dict:
        return {"kind": "generalized_diversity", "lam": self.lam, "weights": self.w.tolist()}


class DiversityWeighted(GeneralizedDiversityWeighted):
    """Generator ``phi(p) = log(sum_j p_j^lam) / lam`` with ``0 < lam < 1``: the
    weighted variant at the scalar weight 1 (so ``shift = 0``)."""

    def __init__(self, lam: float):
        super().__init__(1.0, lam)
        self.name = f"dw[{self.lam:g}]"

    def to_config(self) -> dict:
        return {"kind": "diversity", "lam": self.lam}


class ConvexCombination(Generator):
    """Pointwise blend: phi = sum_k c_k phi_k, pi = sum_k c_k pi_k."""

    def __init__(self, generators, coeffs):
        if len(generators) == 0:
            raise ValueError("need at least one generator to combine")
        c = np.asarray(coeffs, dtype=float)
        if c.size != len(generators):
            raise ValueError("one coefficient per generator required")
        if not (np.all(c >= 0) and abs(c.sum() - 1.0) <= 1e-12):  # in this form NaN and inf fail
            raise ValueError(f"coefficients must be finite, at least 0 and sum to 1, got {c.tolist()}")
        dims = {getattr(g, "dim", None) for g in generators} - {None}
        if len(dims) > 1:
            raise ValueError(f"parts of different dimensions {sorted(dims)}")
        self.parts = list(generators)
        self.coeffs = c
        self.dim = dims.pop() if dims else None
        self.name = "+".join(f"{ck:g}*{g.name}" for ck, g in zip(c, self.parts))

    def _blend(self, method: str, X):
        """sum_k c_k v_k over the parts' values v_k = part_k.method(X), in part
        order; unlike sum(), it starts at the first term instead of adding it
        to 0."""
        total = None
        for c, g in zip(self.coeffs, self.parts):
            v = c * getattr(g, method)(X)
            total = v if total is None else total + v
        return total

    def log_gen(self, P):
        return self._blend("log_gen", P)

    def euclid_grad(self, P) -> np.ndarray:
        return self._blend("euclid_grad", P)

    def portfolio(self, P) -> np.ndarray:
        return self._blend("portfolio", P)

    def dpi_dtheta(self, Theta) -> np.ndarray:
        return self._blend("dpi_dtheta", Theta)

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
# the equal-weighted generator on n assets

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
        if not (w >= -1e-9).all():  # nan fails too; an inf fails the sum below
            raise NonRegularError(f"negative or nan portfolio weight in {w!r}")
        s = w.sum()
        if abs(s - 1.0) > 1e-8:
            raise NonRegularError(f"portfolio weights sum to {float(s)!r}")
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
    """Portfolio of ``gen`` at the open-simplex point ``p``, validated to sum to one."""
    return Portfolio(gen.portfolio(point_rows(p, gen=gen)[0]))


def _portfolio_at(gen: Generator, Theta: np.ndarray) -> np.ndarray:
    """Portfolio weights at (..., n-1) rows of exponential coordinates."""
    return gen.portfolio(from_primal_many(Theta))


def _check_interior(Pi: np.ndarray, who: str) -> None:
    """Raise a :class:`NonRegularError` naming ``who`` if a portfolio of
    ``Pi`` touches the simplex boundary, where the dual map is undefined."""
    # fmin skips NaN, so this is any(Pi <= 0) in one reduction
    if np.fmin.reduce(Pi, None) <= 0.0:
        raise NonRegularError(f"{who}: portfolio touches the simplex boundary; dual map undefined")


def _dual_rows(Theta: np.ndarray, Pi: np.ndarray, who: str) -> np.ndarray:
    """Dual coordinates theta - (log pi_{<n} - log pi_n) over (..., n-1) rows
    ``Theta`` with portfolios ``Pi``; a boundary portfolio is a
    :class:`NonRegularError` naming ``who``."""
    _check_interior(Pi, who)
    return Theta - (np.log(Pi[..., :-1]) - np.log(Pi[..., -1:]))


def portfolio_theta(gen: Generator, theta) -> np.ndarray:
    """Portfolio weights at the point with exponential coordinate ``theta``."""
    return _portfolio_at(gen, coord_rows(theta, gen=gen)[0])


def dual_coord(gen: Generator, theta) -> DualCoord:
    """Dual coordinates ``phi_i = theta_i - log(pi_i / pi_n)`` of a point."""
    th = coord_rows(theta, gen=gen)[0]
    return DualCoord(_dual_rows(th, _portfolio_at(gen, th), gen.name), generator=gen)


def dual_euclidean(gen: Generator, p) -> SimplexPoint:
    """Dual Euclidean coordinates: the point with exponential coordinate -phi."""
    th = to_primal_many(point_rows(p, gen=gen)[0])
    return SimplexPoint(from_primal_many(-_dual_rows(th, _portfolio_at(gen, th), gen.name)))


def jacobian_dual(gen: Generator, theta) -> np.ndarray:
    """Central-difference Jacobian of the dual coordinate map at ``theta``.

    Singular when its smallest singular value is at most 1e-8 times its
    largest, a test that does not depend on the dimension.  A largest
    singular value below 1 counts as 1: the differences carry rounding noise
    of about 1e-11, so a zero Jacobian (the market generator's) is singular.
    """
    th = coord_rows(theta, gen=gen)[0]
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
    return _gaussian_weights(*coord_rows(a, b), lam)


def _gaussian_weights(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
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
    return pit * _identity(pit.shape[-2]) - pit * Pi[..., None, :-1] - dpi[..., :-1, :]


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
    P = point_rows(*sample_points, gen=gen)
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

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


def generator_from_config(cfg: dict) -> Generator:
    """Build a generator from a config record (see each family's to_config).

    A record that is not a dict, or whose kind lacks a field or holds one of
    the wrong type, is a ``ValueError`` that names the field.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"a generator config must be a JSON object, got {cfg!r}")
    kind = cfg.get("kind")

    def field(key, ok, what):
        if not ok(cfg.get(key)):
            raise ValueError(f"{kind} config: field {key!r} must be {what}, got {cfg.get(key)!r}")
        return cfg[key]

    if kind == "market":
        return ZeroGenerator()
    if kind == "equal":
        return UniformCrossEntropy()
    if kind == "constant":
        return ConstantWeighted(field("weights", _is_numbers, "a list of numbers"))
    if kind == "diversity":
        return DiversityWeighted(field("lam", _is_number, "a number"))
    if kind == "generalized_diversity":
        w = field("weights", lambda v: _is_number(v) or _is_numbers(v),
                  "a number or a list of numbers")
        return GeneralizedDiversityWeighted(w, field("lam", _is_number, "a number"))
    if kind == "combination":
        subs = field("components", lambda v: isinstance(v, list), "a list of records")
        coeffs = field("coeffs", _is_numbers, "a list of numbers")
        return ConvexCombination([generator_from_config(sub) for sub in subs], coeffs)
    raise ValueError(f"unknown generator kind {kind!r}")


def generator_to_json(gen: Generator) -> str:
    return json.dumps(gen.to_config())


def generator_from_json(doc: str) -> Generator:
    return generator_from_config(json.loads(doc))
