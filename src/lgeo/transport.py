"""Time-dependent transport: action, minimizing curves, interpolation.

The static cost ``c(theta, phi) = psi(theta - phi)`` extends to a
Lagrangian action on curves gamma in coordinate space: writing q(t) for
the point whose exponential coordinate is ``gamma(0) - gamma(t)``,

    A(gamma) = integral of -log(1/n + dq_n/dt) dt,

and ``c(theta, phi)`` is the minimal action over curves from theta to phi.
The minimizing curve makes q(t) move linearly from the barycenter to its
terminal value, which globally means the transport map deforms by linear
interpolation of the *portfolio* with the equal-weighted one.  The induced
maps stay optimal at intermediate times, and each particle's trajectory
traces a dual geodesic.

The Gaussian product example gives the one closed-form transport pair:
factorized normal marginals are pushed onto each other by an affine map
arising from a weighted diversity portfolio, which this module verifies by
seeded Monte Carlo.

Importing this module loads no scipy: only :func:`action` imports
``scipy.interpolate.CubicSpline`` and ``scipy.integrate.simpson``, on first
use, and :func:`gaussian_example_check` reaches ``scipy.optimize`` through
the monotonicity certificate of :mod:`lgeo.divergence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._table import write_table
from .divergence import CouplingSample, is_c_cyclical_monotone
from .generators import (
    ConvexCombination,
    Generator,
    GeneralizedDiversityWeighted,
    UniformCrossEntropy,
    ZeroGenerator,
    _dual_rows,
    _gaussian_weights,
    _portfolio_at,
)
from .geodesics import Curve, _grid
from .simplex import (
    _as_vector,
    coord_rows,
    from_primal_many,
    point_rows,
    psi_many,
)

__all__ = [
    "ActionValue",
    "InterpolationFamily",
    "GaussianCheckReport",
    "action",
    "minimizing_curve",
    "displacement_family",
    "market_interpolation",
    "gaussian_example_check",
    "coupling_cost",
]

_ACTION_NODES = 129
DEFAULT_MC_SEED = 0x5EED


@dataclass(frozen=True)
class ActionValue:
    """Action of a curve; infeasible curves get +inf and a flag."""

    value: float
    feasible: bool

    def __float__(self) -> float:
        return self.value


def action(curve: Curve) -> ActionValue:
    """Lagrangian action of a coordinate-space curve.

    The curve is resampled by a cubic spline onto a Simpson grid of
    ``_ACTION_NODES`` (129) nodes; the integrand uses the analytic derivative
    of the spline.  If the running portfolio coordinate q_n ever decreases
    faster than its initial level allows (argument of the log not positive),
    the action is +inf.
    """
    from scipy.integrate import simpson
    from scipy.interpolate import CubicSpline

    if curve.coord != "primal":
        raise ValueError("the action is defined for curves in primal coordinate space")
    ts = np.linspace(curve.times[0], curve.times[-1], _ACTION_NODES)
    gamma0 = curve.points[0]
    same_grid = curve.times.size == _ACTION_NODES and np.allclose(curve.times, ts, atol=1e-12)
    if same_grid and curve.velocities is not None:
        points, derivs = curve.points, curve.velocities
    else:
        bc = "not-a-knot"
        if curve.velocities is not None:
            bc = ((1, curve.velocities[0]), (1, curve.velocities[-1]))
        spl = CubicSpline(curve.times, curve.points, axis=0, bc_type=bc)
        points, derivs = spl(ts), spl.derivative(1)(ts)
    x = gamma0[None, :] - points
    n = gamma0.size + 1
    qn = np.exp(-psi_many(x))
    heads = from_primal_many(x)[:, :-1]
    qdot_n = qn * np.sum(heads * derivs, axis=1)
    arg = 1.0 / n + qdot_n
    if np.any(arg <= 0.0):
        return ActionValue(value=float("inf"), feasible=False)
    return ActionValue(value=float(simpson(-np.log(arg), x=ts)), feasible=True)


def minimizing_curve(theta, phi, grid=None) -> Curve:
    """The action-minimizing curve from theta to phi.

    Its induced portfolio path interpolates linearly between the barycenter
    and the terminal portfolio, so the integrand is constant and the action
    equals the transport cost psi(theta - phi).
    """
    th, ph = coord_rows(theta, phi)
    ts = _grid(grid)
    n = th.size + 1
    q1 = from_primal_many(th - ph)
    a = (1.0 - ts)[:, None] / n + ts[:, None] * q1[None, :]  # (m, n)
    pts = _dual_rows(th, a, "minimizing curve")
    adot = q1 - 1.0 / n
    vel = -(adot[None, :-1] / a[:, :-1] - adot[None, -1:] / a[:, -1:])
    return Curve(ts, pts, "primal", velocities=vel)


# ---------------------------------------------------------------------------
# interpolation families

@dataclass
class InterpolationFamily:
    """One-parameter family of generators, portfolio maps, and dual maps.

    ``kind='displacement'`` blends the portfolio linearly with the
    equal-weighted one (the optimal intermediate-time interpolation);
    ``kind='market'`` blends with the market portfolio, scaling the log
    generating function by (1 - t).
    """

    base: Generator
    kind: str = "displacement"

    def __post_init__(self):
        if self.kind not in ("displacement", "market"):
            raise ValueError("kind must be 'displacement' or 'market'")

    @staticmethod
    def _parameter(t) -> np.ndarray:
        """``t``, one time or an array of them, as floats in [0, 1]."""
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails too
            raise ValueError("interpolation parameter must lie in [0, 1]")
        return t

    def generator_at(self, t: float) -> Generator:
        t = float(self._parameter(t))
        other = UniformCrossEntropy() if self.kind == "displacement" else ZeroGenerator()
        if t == 0.0:
            return other if self.kind == "displacement" else self.base
        if t == 1.0:
            return self.base if self.kind == "displacement" else other
        if self.kind == "displacement":
            return ConvexCombination([other, self.base], [1.0 - t, t])
        return ConvexCombination([self.base, other], [1.0 - t, t])

    def _blend(self, t, p: np.ndarray) -> np.ndarray:
        """Blended weights at the point p for one time t, or one row per time
        of an array t."""
        t = self._parameter(t)[..., None]
        base_pi = self.base.portfolio(p)
        if self.kind == "displacement":
            return (1.0 - t) / p.size + t * base_pi
        return (1.0 - t) * base_pi + t * p

    def portfolio_at(self, t: float, p) -> np.ndarray:
        """Blended weights, directly from the defining linear interpolation."""
        return self._blend(t, point_rows(p, gen=self.base)[0])

    def dual_map_at(self, t: float, theta) -> np.ndarray:
        """The transport map F_t in coordinates: theta - log weight ratios."""
        th = coord_rows(theta, gen=self.base)[0]
        return _dual_rows(th, self._blend(t, from_primal_many(th)), f"{self.kind} interpolation")

    def trajectory(self, theta, grid=None) -> Curve:
        """The path t -> F_t(theta) of one particle, in dual coordinates.

        The base portfolio at theta is evaluated once; all grid times are
        blended as one array and mapped together."""
        ts = _grid(grid)
        th = coord_rows(theta, gen=self.base)[0]
        Pi = self._blend(ts, from_primal_many(th))
        return Curve(ts, _dual_rows(th, Pi, f"{self.kind} interpolation"), "dual")


def displacement_family(gen: Generator) -> InterpolationFamily:
    """Displacement interpolation of the transport map induced by ``gen``."""
    return InterpolationFamily(base=gen, kind="displacement")


def market_interpolation(gen: Generator) -> InterpolationFamily:
    """Linear interpolation of the portfolio toward the market portfolio."""
    return InterpolationFamily(base=gen, kind="market")


# ---------------------------------------------------------------------------
# the Gaussian product example

@dataclass
class GaussianCheckReport:
    """Seeded Monte Carlo audit of the factorized-Gaussian transport map."""

    lam: float
    map_scale: float
    map_shift: np.ndarray
    affine_error: float
    sample_mean: np.ndarray
    target_mean: np.ndarray
    mean_tolerance: np.ndarray
    sample_var: np.ndarray
    target_var: np.ndarray
    var_rel_tolerance: float
    cyclical_monotone: bool
    sample_size: int
    seed: int
    records: list = field(default_factory=list)

    @property
    def means_ok(self) -> bool:
        return bool(np.all(np.abs(self.sample_mean - self.target_mean) <= self.mean_tolerance))

    @property
    def vars_ok(self) -> bool:
        rel = np.abs(self.sample_var - self.target_var) / self.target_var
        return bool(np.all(rel <= self.var_rel_tolerance))

    @property
    def passed(self) -> bool:
        return self.means_ok and self.vars_ok and self.affine_error <= 1e-12 and self.cyclical_monotone

    def to_csv(self, path) -> None:
        m = self.sample_mean.size
        write_table(path, ["marginal", "map_scale", "map_shift", "sample_mean", "target_mean",
                           "mean_tolerance", "sample_var", "target_var"],
                    [np.arange(1, m + 1), np.full(m, self.map_scale), self.map_shift,
                     self.sample_mean, self.target_mean, self.mean_tolerance, self.sample_var,
                     self.target_var], newline="\r\n")


def _dual_map_batch(gen: Generator, Theta: np.ndarray) -> np.ndarray:
    return _dual_rows(Theta, _portfolio_at(gen, Theta), gen.name)


_MC_CHUNK = 1 << 14
_GRAPH_POINTS = 6


def gaussian_example_check(a, b, sigma, lam, sample_size: int = 100_000,
                           seed: int = DEFAULT_MC_SEED) -> GaussianCheckReport:
    """Verify the factorized-Gaussian transport example by simulation.

    Builds the weighted diversity generator whose dual map is
    ``theta -> (1 - lam) theta + shift`` with shift matching the target
    means, pushes N(a_i, sigma_i^2) samples through the *actual* dual-map
    code path, and checks the pushforward marginals: means within
    4 sd/sqrt(N), variances within 5% of (1 - lam)^2 sigma_i^2 (the
    variance an affine map with slope 1 - lam produces).  Sampling is
    chunked with per-chunk derived seeds so results are reproducible
    regardless of chunking.  ``a``, ``b`` and ``sigma`` are finite vectors
    of one length (a number is one entry); a ``ValueError`` names the one
    that is not.
    """
    a, b, sigma = (_as_vector(np.atleast_1d(x), name)
                   for x, name in ((a, "a"), (b, "b"), (sigma, "sigma")))
    if not a.size == b.size == sigma.size:
        sizes = [a.size, b.size, sigma.size]
        raise ValueError(f"dimension mismatch: a, b and sigma of sizes {sizes}")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if np.any(sigma <= 0):
        raise ValueError("sigma must be strictly positive")
    if sample_size < 2:
        raise ValueError(f"the sample variance needs sample_size >= 2, got {sample_size}")
    w = _gaussian_weights(a, b, lam)
    gen = GeneralizedDiversityWeighted(w, lam)
    scale = 1.0 - lam
    shift = -gen.shift

    # exact affinity of the map on a deterministic probe set
    probe = np.vstack([np.zeros_like(a), np.eye(a.size), -np.eye(a.size), a[None, :]])
    mapped = _dual_map_batch(gen, probe)
    affine_error = float(np.max(np.abs(mapped - (scale * probe + shift))))

    # chunked, seed-derived Monte Carlo; fixed reduction order
    pushed_chunks = []
    start = 0
    chunk_idx = 0
    while start < sample_size:
        m = min(_MC_CHUNK, sample_size - start)
        rng = np.random.default_rng([seed, chunk_idx])
        theta = a + sigma * rng.standard_normal(size=(m, a.size))
        pushed_chunks.append(_dual_map_batch(gen, theta))
        start += m
        chunk_idx += 1
    # one contiguous row per marginal: reduced pairwise, not by a strided axis-0 loop
    marginals = np.concatenate(pushed_chunks, axis=0).T.copy()

    target_var = scale**2 * sigma**2
    sd_push = scale * sigma
    report = GaussianCheckReport(
        lam=lam,
        map_scale=scale,
        map_shift=shift,
        affine_error=affine_error,
        sample_mean=marginals.mean(axis=1),
        target_mean=b,
        mean_tolerance=4.0 * sd_push / np.sqrt(sample_size),
        sample_var=marginals.var(axis=1, ddof=1),
        target_var=target_var,
        var_rel_tolerance=0.05,
        cyclical_monotone=_graph_is_monotone(gen, a, sigma, seed),
        sample_size=sample_size,
        seed=seed,
    )
    return report


def _graph_is_monotone(gen, a, sigma, seed) -> bool:
    rng = np.random.default_rng([seed, 0xC0])
    theta = a + sigma * rng.standard_normal(size=(_GRAPH_POINTS, a.size))
    phi = _dual_map_batch(gen, theta)
    sample = CouplingSample(pairs=[(t, f) for t, f in zip(theta, phi)])
    return is_c_cyclical_monotone(sample)


# ---------------------------------------------------------------------------
# coupling cost

def coupling_cost(sample: CouplingSample) -> float:
    """Total transport cost of a sampled coupling, each pair weighted equally.

    :func:`lgeo.divergence.optimal_assignment` gives the least such cost.
    """
    X = np.asarray(sample.pairs, dtype=float)
    return float(sum(psi_many(X[:, 0] - X[:, 1])))
