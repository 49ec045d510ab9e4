import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from lgeo import divergence as D
from lgeo import generators as G
from lgeo import geodesics as gd
from lgeo import geometry as Ge
from lgeo import simplex as S
from lgeo.divergence import l_divergence, l_divergence_primal, pyth_transport_gap
from lgeo.generators import dual_coord, dual_euclidean
from lgeo.geometry import metric_primal
from lgeo.simplex import from_primal, psi, to_primal

from conftest import builtin_zoo, dirichlet_points
from _oracles import (
    flow_slack,
    geodesic_invariant,
    integrate_geodesic_stages,
    point_segment_distance,
    polyline_hausdorff,
    region_sample_scan,
    rk4_flows,
)

Q3 = np.array([0.6, 0.25, 0.15])
R3 = np.array([0.15, 0.35, 0.5])
P3 = np.array([0.3, 0.5, 0.2])


def bound_weight_evaluations(monkeypatch, limit, modules=(gd, Ge)):
    """Make the flows fail once they evaluate their speed Z at more than
    ``limit`` points in all; returns the list that gets the number of
    points of each evaluation.  The speed kernel ``_log_tilt`` is counted
    where ``modules`` call it, by default the flows' weights (geodesics) and
    velocities (geometry)."""
    log_speed, rows = S._log_tilt, []

    def bounded_log_speed(Pi, delta):
        rows.append(int(np.prod(np.shape(delta)[:-1])))
        if sum(rows) > limit:
            raise AssertionError("flow evaluated its speed too often")
        return log_speed(Pi, delta)

    for module in modules:
        monkeypatch.setattr(module, "_log_tilt", bounded_log_speed)
    return rows


def bound_newton_evaluations(monkeypatch, limit):
    """Fail once the Newton solver of the inverse dual map evaluates u at
    more than ``limit`` rows in all; returns the list of rows per call."""
    value_grad, rows = D._u_value_grad, []

    def bounded(gen, Th, Ph):
        rows.append(Th.shape[0])
        if sum(rows) > limit:
            raise AssertionError("Newton evaluated u at too many rows")
        return value_grad(gen, Th, Ph)

    monkeypatch.setattr(D, "_u_value_grad", bounded)
    return rows


def bound_f_rows(monkeypatch, limit):
    """Fail once the geodesics evaluate f at more than ``limit`` rows in
    all; returns the list of rows per call of the kernel of ``f_value``."""
    f_rows, rows = gd._f_rows, []

    def bounded(gen, Th):
        rows.append(int(np.prod(np.shape(Th)[:-1])))
        if sum(rows) > limit:
            raise AssertionError("geodesic evaluated f at too many rows")
        return f_rows(gen, Th)

    monkeypatch.setattr(gd, "_f_rows", bounded)
    return rows


def record_reparam(monkeypatch):
    """Record each call of the chord quadrature: the log weight, the span,
    the output times, the returned chord parameters and ``normalized``."""
    reparam, calls = gd._reparam_from_weight, []

    def recorded(logw, span, t_out, normalized=True):
        out = reparam(logw, span, t_out, normalized)
        calls.append((logw, span, t_out, out[0], normalized))
        return out

    monkeypatch.setattr(gd, "_reparam_from_weight", recorded)
    return calls


def prefix_fsums(x, ends):
    """math.fsum(x[:k]) for each k of the increasing ``ends``, in one pass:
    the sum so far is kept exactly as nonoverlapping partials (Shewchuk
    1997, the recipe that math.fsum implements)."""
    partials, out, start = [], [], 0
    for k in ends:
        for v in x[start:k].tolist():
            i = 0
            for y in partials:
                if abs(v) < abs(y):
                    v, y = y, v
                hi = v + y
                lo = y - (hi - v)
                if lo:
                    partials[i] = lo
                    i += 1
                v = hi
            partials[i:] = [v]
        out.append(math.fsum(partials))
        start = k
    return np.array(out)


def gauss_times(logw, s0, s1, s_out, normalized=True):
    """int_s0^s w / int_s0^s1 w (or int_s0^s w, not ``normalized``) at each
    of ``s_out`` by a 20-point Gauss rule on cuts uniform on [s0, s1] and
    geometric toward both of its ends, each prefix summed exactly; the rule
    has converged when 16 points agree to 2 rounding units of max(1, t)."""
    frac = np.concatenate((np.linspace(0.0, 1.0, 65), 0.5 ** np.arange(1, 48),
                           1.0 - 0.5 ** np.arange(1, 48)))
    cuts = np.unique(np.concatenate((s0 + (s1 - s0) * frac, s_out)))
    cuts = cuts[(cuts >= s0) & (cuts <= s1)]
    a, b = cuts[:-1], cuts[1:]
    out = []
    for order in (20, 16):
        x, wx = np.polynomial.legendre.leggauss(order)
        lw = logw((((a + b)[:, None] + (b - a)[:, None] * x) / 2).ravel()).reshape(-1, order)
        pieces = (b - a) / 2 * (np.exp(lw - lw.max()) @ wx)
        total = math.fsum(pieces) if normalized else math.exp(-lw.max())
        out.append(prefix_fsums(pieces, np.searchsorted(cuts, s_out)) / total)
    assert np.max(np.abs(out[0] - out[1]) / np.maximum(1.0, out[0])) < 2 * np.finfo(float).eps
    return out[0]


def flow_weight_limit(steps):
    """Speed evaluations a flow may take: its adaptive quadrature table (at
    most about 2,500 rows on random pairs at n = 3, 5 and 10, so 12,000
    leaves room for stiff chords), and per output row the velocity, with
    room for 10 more rows.  The series that Newton inverts takes its values
    from the table, so it evaluates no weight of its own."""
    return 12_000 + 11 * (steps + 1)


class TestCurve:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            gd.Curve(np.array([0.0, 0.0, 1.0]), np.zeros((3, 2)), "primal")

    @pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [np.nan, 1.0], [0.0, np.inf],
                                       [-np.inf, 0.0, 1.0]])
    def test_requires_finite_times(self, times):
        with pytest.raises(ValueError, match="finite"):
            gd.Curve(np.array(times), np.zeros((len(times), 2)), "primal")

    def test_requires_finite_points(self):
        with pytest.raises(ValueError):
            gd.Curve(np.array([0.0, 1.0]), np.array([[0.0], [np.inf]]), "primal")

    def test_csv_round_trip_values(self, tmp_path):
        c = gd.primal_geodesic(G.equal_weighted(3), Q3, R3, grid=17)
        path = tmp_path / "curve.csv"
        c.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,theta_1,theta_2"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], c.times)
        assert np.array_equal(data[:, 1:], c.points)

    @pytest.mark.parametrize("which,label", [("primal", "theta"), ("dual", "phi")])
    @pytest.mark.parametrize("grid", [129, 801])
    def test_csv_bytes_match_savetxt(self, tmp_path, which, label, grid):
        make = gd.primal_geodesic if which == "primal" else gd.dual_geodesic
        c = make(G.DiversityWeighted(0.5), Q3, R3, grid=grid)
        path, ref = tmp_path / "curve.csv", tmp_path / "ref.csv"
        c.to_csv(path)
        np.savetxt(ref, np.column_stack([c.times, c.points]), delimiter=",",
                   header=f"t,{label}_1,{label}_2", comments="", fmt="%.17g")
        assert path.read_bytes() == ref.read_bytes()
        assert len(path.read_text().splitlines()) == grid + 1

    def test_csv_keeps_the_sign_of_zero(self, tmp_path):
        # a column with repeated values, and one of distinct values
        points = np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, 1.0], [-0.0, 2.0]])
        c = gd.Curve(np.arange(4.0), points, "primal")
        path = tmp_path / "curve.csv"
        c.to_csv(path)
        assert path.read_text() == "t,theta_1,theta_2\n0,0,0\n1,-0,-0\n2,0,1\n3,-0,2\n"

    def test_velocities_match_centered_differences(self):
        c = gd.primal_geodesic(G.DiversityWeighted(0.5), Q3, R3, grid=65)
        dt = c.times[1] - c.times[0]
        centered = (c.points[2:] - c.points[:-2]) / (2 * dt)
        assert np.max(np.abs(centered - c.velocities[1:-1])) < 10 * dt**2


class TestPrimalGeodesic:
    def test_constant_when_endpoints_coincide(self):
        c = gd.primal_geodesic(G.equal_weighted(3), Q3, Q3)
        assert np.allclose(c.points, c.points[0], atol=1e-15)
        assert np.allclose(c.velocities, 0.0)

    def test_endpoints(self, rng):
        for name, gen in builtin_zoo(3).items():
            c = gd.primal_geodesic(gen, Q3, R3)
            assert np.max(np.abs(c.euclidean_trace()[0] - Q3)) < 1e-8, name
            assert np.max(np.abs(c.euclidean_trace()[-1] - R3)) < 1e-8, name

    def test_collinearity(self, rng):
        for name, gen in builtin_zoo(3).items():
            q, r = dirichlet_points(rng, 3, 2)
            c = gd.primal_geodesic(gen, q, r)
            resid = point_segment_distance(c.euclidean_trace(), q, r).max()
            assert resid < 1e-8, name

    def test_geodesic_equation_residual(self, rng):
        for name, gen in builtin_zoo(3).items():
            c = gd.primal_geodesic(gen, Q3, R3)
            assert gd.geodesic_residual(gen, c, trim=3) < 1e-5, name

    def test_monotone_progress(self):
        c = gd.primal_geodesic(G.DiversityWeighted(0.5), Q3, R3)
        # the mixing parameter along the chord must increase strictly
        trace = c.euclidean_trace()
        s = (trace - Q3) @ (R3 - Q3) / ((R3 - Q3) @ (R3 - Q3))
        assert np.all(np.diff(s) > 0)

    def test_reparameterized_chord_is_pregeodesic(self):
        # any monotone reparameterization of the trace solves the geodesic
        # equation up to a time change: residual stays parallel to velocity
        gen = G.DiversityWeighted(0.5)
        th_q, th_r = to_primal(Q3).theta, to_primal(R3).theta
        B = np.exp(th_r) - np.exp(th_q)
        from lgeo.generators import portfolio_theta

        for t in np.linspace(0.05, 0.95, 13):
            h = t * t * (3 - 2 * t)  # smooth, increasing, not the affine h
            hdot = 6 * t * (1 - t)
            hddot = 6 - 12 * t
            A = (1 - h) * np.exp(th_q) + h * np.exp(th_r)
            xi = np.log(A)
            v = hdot * B / A
            a = hddot * B / A - v * v
            pi = portfolio_theta(gen, xi)
            resid = a + v * v - 2 * v * (pi[:-1] @ v)
            # collinear with v: the normalized cross part vanishes
            cross = resid - (resid @ v) / (v @ v) * v
            assert np.linalg.norm(cross) < 1e-10 * max(1.0, np.linalg.norm(resid))

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [np.nan, 1.0], [], [0.5], [0.0, np.inf],
                                      [0.0, 0.5, 0.5, 1.0], [0.5, 0.2], [-0.1, 1.0], [[0.0, 1.0]]])
    def test_geodesic_grid_rejects_bad_times(self, grid):
        # NaN fails every comparison, so a check for a decreasing step or an
        # end outside [0, 1] alone let it through, and an empty grid raised IndexError
        for geodesic in (gd.primal_geodesic, gd.dual_geodesic):
            with pytest.raises(ValueError, match="strictly increasing"):
                geodesic(G.DiversityWeighted(0.5), Q3, R3, grid=grid)

    @pytest.mark.parametrize("grid", [1, 0, -3])
    def test_geodesic_grid_needs_two_times(self, grid):
        for geodesic in (gd.primal_geodesic, gd.dual_geodesic):
            with pytest.raises(ValueError, match="at least 2"):
                geodesic(G.DiversityWeighted(0.5), Q3, R3, grid=grid)


class TestDualGeodesic:
    def test_constant_when_endpoints_coincide(self):
        c = gd.dual_geodesic(G.DiversityWeighted(0.5), Q3, Q3)
        assert np.allclose(c.points, c.points[0], atol=1e-15)

    def test_dual_coordinates_of_equal_weighted_match_primal(self, rng):
        # for the equal-weighted generator the dual map is the identity
        gen = G.equal_weighted(3)
        c = gd.dual_geodesic(gen, Q3, P3)
        assert np.allclose(c.points[0], to_primal(Q3).theta, atol=1e-12)
        assert np.allclose(c.points[-1], to_primal(P3).theta, atol=1e-12)

    def test_dual_euclidean_collinearity(self, rng):
        for name, gen in builtin_zoo(3).items():
            q, p = dirichlet_points(rng, 3, 2)
            c = gd.dual_geodesic(gen, q, p)
            a = dual_euclidean(gen, q).p
            b = dual_euclidean(gen, p).p
            resid = point_segment_distance(c.euclidean_trace(), a, b).max()
            assert resid < 1e-8, name

    def test_geodesic_equation_residual(self, rng):
        for name, gen in builtin_zoo(3).items():
            c = gd.dual_geodesic(gen, Q3, P3)
            assert gd.geodesic_residual(gen, c, trim=3) < 1e-5, name

    def test_newton_rows_start_warm_along_the_chord(self, monkeypatch):
        # 33 uniform nodes of the chord's span are solved cold, every later
        # row of the table starts from the interpolant through the rows
        # solved before it, and the range guard at the rows solved for the
        # velocities: about 0.9k rows of u.  A dense solve of 1025 nodes for
        # a spline took about 3.5k, and a cold start of each row at its own
        # dual coordinate about 34.6k
        q, p = np.full(10, 0.1), np.linspace(1.0, 2.0, 10) / 15.0
        rows = bound_newton_evaluations(monkeypatch, 2_400)
        gd.dual_geodesic(builtin_zoo(10)["mix"], q, p)
        assert sum(rows) > 0

    @pytest.mark.parametrize("n, seed, end, k, limit", [(3, 7, 0, 0, 15_000), (10, 7, 0, 0, 15_000),
                                                        (10, 9, 1, 9, 15_000)])
    def test_boundary_chord_costs_few_newton_rows(self, monkeypatch, n, seed, end, k, limit):
        # bounds cost; test_boundary_geodesic_times_match_a_converged_rule
        # checks the accuracy of h(t) this close to the boundary.  Entry k of
        # q (end 0) or p (end 1) is 1e-12.  In a parameter logistic at each
        # end's scale the chord takes about 1.7k, 1.8k and 1.8k rows of u;
        # the same table uniform in h took 5.0k, 6.3k and 21k, and from a
        # spline through a uniform grid 65k, 105k and 484k
        ends = np.random.default_rng(seed).dirichlet(np.ones(n), 2)
        ends[end, k] = 1e-12
        ends[end] /= ends[end].sum()

        def no_restart(*args, **kwargs):
            raise AssertionError("a chord row reached the restart stage")

        rows = bound_newton_evaluations(monkeypatch, limit)
        monkeypatch.setattr(D, "_restart", no_restart)
        gd.dual_geodesic(builtin_zoo(n)["mix"], *ends)
        assert sum(rows) > 0

    def test_closed_forms_never_solve(self, monkeypatch):
        # both dual curves map their chords by the closed-form inverse; the
        # range guard's conjugate minimization is a Newton solve by design
        def no_newton(*args, **kwargs):
            raise AssertionError("closed-form family reached the Newton solver")

        monkeypatch.setattr(D, "_newton_max_u", no_newton)
        monkeypatch.setattr(gd, "_dual_range_guard", lambda gen, curve, Th0: None)
        for name, gen in builtin_zoo(3).items():
            if name == "mix":
                continue
            gd.dual_geodesic(gen, Q3, P3)
            gd.dual_flow(gen, Q3, P3, horizon=5.0, steps=20)


class TestDualRangeGuard:
    """The range guard reports the first output time whose row fails, the
    same whether its conjugate minimization starts at rows solved cold or at
    the rows that the curve solved for its velocities."""

    @staticmethod
    def curve_and_starts(gen):
        # the dual geodesic, the rows solved cold at its points, and the rows
        # that dual_geodesic hands to the guard
        handed = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(gd, "_dual_range_guard", lambda gen, curve, Th0: handed.append(Th0))
            curve = gd.dual_geodesic(gen, Q3, P3)
        return curve, (D.inverse_dual_coord(gen, curve.points), handed[0])

    @staticmethod
    def guard_error(gen, curve, start):
        with pytest.raises(gd.DualRangeError) as info:
            gd._dual_range_guard(gen, curve, start)
        return info.value

    def test_conjugate_solve_failure(self, monkeypatch):
        # dw inverts in closed form, so the guard's own conjugate minimization
        # is the only Newton solve; rows 40 and 90 report no convergence
        gen = G.DiversityWeighted(0.5)
        curve, starts = self.curve_and_starts(gen)
        newton = D._newton_max_u

        def failing(gen, Ph, X0):
            Th, U, ok = newton(gen, Ph, X0)
            ok[[90, 40]] = False
            return Th, U, ok

        monkeypatch.setattr(D, "_newton_max_u", failing)
        for start in starts:
            err = self.guard_error(gen, curve, start)
            assert err.last_valid_t == curve.times[40]
            assert "left the dual range" in str(err)

    def test_inverse_failure(self, monkeypatch):
        # mix has no closed form: rows 70 and 30 fail the guard's conjugate
        # minimization, and the guard reports row 30 without going on to
        # the solver's restart stage
        gen = builtin_zoo(3)["mix"]
        curve, starts = self.curve_and_starts(gen)
        newton = D._newton_max_u

        def failing(gen, Ph, X0):
            Th, U, ok = newton(gen, Ph, X0)
            if len(ok) == len(curve):
                ok[[70, 30]] = False
            return Th, U, ok

        def no_restart(gen, Ph, Th, rows):
            raise D.ConvergenceError("forced")

        monkeypatch.setattr(D, "_newton_max_u", failing)
        monkeypatch.setattr(D, "_restart", no_restart)
        for start in starts:
            err = self.guard_error(gen, curve, start)
            assert err.last_valid_t == curve.times[30]
            assert "left the dual range" in str(err)

    def test_fenchel_gap_exceeds_bound(self, monkeypatch):
        # a conjugate minimization that lands off the minimizer at rows 100
        # and 60 leaves a Fenchel gap far above 1e-6 there
        gen = G.DiversityWeighted(0.5)
        curve, starts = self.curve_and_starts(gen)
        newton = D._newton_max_u

        def off_target(gen, Ph, X0):
            Th, U, ok = newton(gen, Ph, X0)
            Th[[100, 60]] += 0.1
            return Th, U, ok

        monkeypatch.setattr(D, "_newton_max_u", off_target)
        for start in starts:
            err = self.guard_error(gen, curve, start)
            assert err.last_valid_t == curve.times[60]
            assert "Fenchel equality fails" in str(err)

    def test_dual_geodesic_starts_the_guard_at_solved_rows(self, monkeypatch):
        # a dual geodesic and a dual exponential map hand the guard the rows
        # they solved for their velocities, so every row of the guard's
        # conjugate minimization ends on one evaluation of u
        gen = builtin_zoo(3)["mix"]
        guard, seen = gd._dual_range_guard, []
        monkeypatch.setattr(gd, "_dual_range_guard", lambda *args: seen.append(args))
        curve = gd.dual_geodesic(gen, Q3, P3)
        gd.integrate_geodesic(gen, curve.points[0], curve.velocities[0], "dual")
        assert len(seen) == 2
        for args in seen:
            with pytest.MonkeyPatch.context() as m:
                rows = bound_newton_evaluations(m, len(args[1]))
                guard(*args)
            assert sum(rows) == len(args[1])

    @pytest.mark.parametrize("n, limit", [(3, 4_500), (10, 4_500)])
    def test_dual_exponential_map_solves_each_row_once(self, monkeypatch, n, limit):
        # one chord inverse per doubling of the reach serves both the reach
        # estimate and the table, and the guard starts at the velocity's
        # rows: about 3.7k rows of u at n = 3 and 10, where a separate
        # inverse for the estimate and a cold start of the guard took 8.2k
        # and 8.5k
        gen = builtin_zoo(n)["mix"]
        q, p = np.random.default_rng(3).dirichlet(np.ones(n), 2)
        ref = gd.dual_geodesic(gen, q, p)
        rows = bound_newton_evaluations(monkeypatch, limit)
        gd.integrate_geodesic(gen, ref.points[0], ref.velocities[0], "dual")
        assert sum(rows) > 0


class TestChordQuadrature:
    def test_geodesic_evaluates_f_at_few_rows(self, monkeypatch):
        # a fixed table of 4,096 intervals took about 22,100 rows of f
        gen = G.DiversityWeighted(0.5)
        rows = bound_f_rows(monkeypatch, 4_000)
        for build in (gd.primal_geodesic, gd.dual_geodesic):
            rows.clear()
            build(gen, Q3, R3, grid=129)
            assert sum(rows) > 0

    def test_refinement_ends_on_its_own(self):
        # a kink at 1/3, never a breakpoint, keeps the error estimate of the
        # interval around it above its bound for many halvings; with no cap on
        # the depth the table halves it until the estimate meets the bound
        logw = lambda s: 5.0 * np.abs(s - 1.0 / 3.0)
        levels = []

        def counted(s):
            levels.append(s.size)  # each table level evaluates the weight once
            return logw(s)

        grid, ends = np.linspace(0.0, 1.0, 17), np.array([0.0, 1.0])
        h, _ = gd._reparam_from_weight(counted, grid, ends)  # no series: table levels only
        assert np.array_equal(h, ends)
        assert 1 < len(levels) <= 64, len(levels)
        # and the time change is the weight's integral to rounding (a depth
        # cap of 16 halvings left it off by up to 1e-9)
        t = np.linspace(0.0, 1.0, 33)
        h, _ = gd._reparam_from_weight(logw, grid, t)
        w = lambda s: np.exp(logw(s))
        total = quad(w, 0.0, 1.0, points=[1.0 / 3.0], epsabs=0, epsrel=1e-13)[0]
        for ti, hi in zip(t, h):
            ref = quad(w, 0.0, hi, points=[1.0 / 3.0] if hi > 1.0 / 3.0 else None,
                       epsabs=0, epsrel=1e-13)[0]
            assert abs(ref / total - ti) < 8 * np.finfo(float).eps, ti

    def test_flow_takes_at_most_two_weight_rows_per_output_row(self, monkeypatch):
        # the table, whose values also give the series that Newton inverts,
        # takes about 0.8 weight rows per output row here; a Newton polish
        # that evaluated the weight at 6 points per row and step took 6.7,
        # and with a stop on |F| at the start of each step about 13.7
        steps = 800
        rows = bound_weight_evaluations(monkeypatch, 2 * (steps + 1), modules=(gd,))
        gd.primal_flow(G.DiversityWeighted(0.5), Q3, R3, horizon=20.0, steps=steps)
        assert sum(rows) > 0

    def test_polished_times_match_quad(self, monkeypatch):
        # t(s) recomputed by quad at the returned s of two flows and of the
        # stiff chord of TestIntegrateGeodesic::test_reproduces_stiff_chords,
        # both ways, to a few rounding units of max(1, t).  On that chord the
        # weight spans orders of magnitude: a table uniform in h, accepted at
        # 1e-14 of the running total, was off by up to about 45 units
        calls = record_reparam(monkeypatch)
        eps = np.finfo(float).eps
        q, r = np.random.default_rng(0).dirichlet(np.ones(3), 2)
        zoo = builtin_zoo(3)
        for name in ("diversity", "gdw", "equal"):
            gen = zoo[name]
            calls.clear()
            gd.primal_flow(gen, Q3, R3, horizon=5.0, steps=20)
            gd.dual_flow(gen, Q3, R3, horizon=5.0, steps=20)
            gd.dual_geodesic(gen, q, r, grid=17)
            gd.primal_geodesic(gen, q, r, grid=17)
            gd.primal_geodesic(gen, r, q, grid=17)
            for k, (logw, span, t_out, s, normalized) in enumerate(calls):
                w = lambda x: float(np.exp(logw(np.array([x]))[0]))
                integral = lambda b: quad(w, span[0], b, epsabs=0, epsrel=1e-13, limit=200)[0]
                total = integral(span[-1]) if normalized else 1.0
                err = max(abs(integral(si) / total - ti) / max(1.0, ti)
                          for ti, si in zip(t_out[1:], s[1:]))
                assert err < 8 * eps, (name, k, err / eps)

    @pytest.mark.parametrize("n", [3, 10])
    def test_boundary_geodesic_times_match_a_converged_rule(self, monkeypatch, n):
        # both geodesics of every family between a point with one entry of
        # 1e-9 or 1e-12 and an interior one, either way round: t at the
        # returned chord parameter, against a 20-point Gauss rule on cuts
        # uniform in that parameter and geometric toward both of its ends,
        # which uses the weight but not the table.  A table uniform in h with
        # a depth cap was off by up to 1.4e13 rounding units of max(1, t)
        calls = record_reparam(monkeypatch)
        eps = np.finfo(float).eps
        base = np.random.default_rng(7).dirichlet(np.ones(n), 2)
        for name, gen in builtin_zoo(n).items():
            for small, end in [(1e-9, 0), (1e-9, 1), (1e-12, 0), (1e-12, 1)]:
                ends = base.copy()
                ends[end, 0] = small
                ends[end] /= ends[end].sum()
                for build in (gd.primal_geodesic, gd.dual_geodesic):
                    calls.clear()
                    build(gen, *ends)
                    logw, span, t_out, s, _ = calls[0]
                    t = gauss_times(logw, span[0], span[-1], s[1:])
                    err = np.max(np.abs(t - t_out[1:]) / np.maximum(1.0, t_out[1:]))
                    assert err < 8 * eps, (name, small, end, build.__name__, err / eps)

    @pytest.mark.parametrize("n", [3, 10])
    def test_flow_times_match_a_converged_rule(self, monkeypatch, n):
        # flows at the benchmark's shape, horizon 20 and 800 steps, so about
        # 20 output rows per table half: t at the returned chord parameter
        # against the 20-point Gauss rule, which uses the weight but not the
        # table.  mix dual flows are left out: their weight carries the noise
        # of the Newton stop of the inverse dual map, and no rule converges on it
        calls = record_reparam(monkeypatch)
        eps = np.finfo(float).eps
        q, r = np.random.default_rng(11).dirichlet(np.ones(n), 2)
        for name, gen in builtin_zoo(n).items():
            for flow in (gd.primal_flow, gd.dual_flow) if name != "mix" else (gd.primal_flow,):
                calls.clear()
                flow(gen, q, r, horizon=20.0, steps=800)
                logw, span, t_out, s, _ = calls[0]
                inside = (s > span[0]) & (s < span[-1])
                assert inside.sum() == 800, (name, flow.__name__)
                t = gauss_times(logw, span[0], span[-1], s[inside], normalized=False)
                err = np.max(np.abs(t - t_out[inside]) / np.maximum(1.0, t_out[inside]))
                assert err < 8 * eps, (name, flow.__name__, err / eps)

    def test_exponential_map_times_match_a_converged_rule_at_small_velocities(self, monkeypatch):
        # the reach grid starts near a t_end in u, since t is about u / a for
        # small u, so the quadrature table spans the curve.  From u = 1 at
        # every velocity, a curve at 1e-8 lay at the start of the first table
        # half, whose time was about 1e8 times the curve's, and its times were
        # off by up to about 50 rounding units of t
        calls = record_reparam(monkeypatch)
        eps = np.finfo(float).eps
        gen = G.DiversityWeighted(0.5)
        v = gd.inverse_exp(gen, Q3, R3, "primal")
        for scale in (1e-8, 1e-4, 1.0):
            calls.clear()
            gd.integrate_geodesic(gen, to_primal(Q3).theta, scale * v, "primal", steps=128)
            logw, span, t_out, s, _ = calls[-1]
            t = gauss_times(logw, span[0], span[-1], s[1:], normalized=False)
            err = np.max(np.abs(t - t_out[1:]) / np.maximum(1.0, t_out[1:]))
            assert err < 8 * eps, (scale, err / eps)

    def test_legendre_rise_keeps_its_precision_near_the_left_end(self):
        # P_m(d - 1) - P_m(-1) against exact rational arithmetic, to a few
        # rounding units of its size, also at d = 1e-15, where P_m(d - 1)
        # minus (-1)^m keeps at most one digit of it
        from fractions import Fraction

        eps = np.finfo(float).eps
        d = np.r_[np.geomspace(1e-15, 1.0, 16), 1.5, 2.0]
        got = gd._legendre_rise(d, 11)
        for col, x in enumerate(d):
            xi = Fraction(float(x)) - 1
            P = [Fraction(1), xi]
            for m in range(1, 10):
                P.append(((2 * m + 1) * xi * P[m] - m * P[m - 1]) / (m + 1))
            exact = np.array([float(p - (-1) ** m) for m, p in enumerate(P)])
            assert np.all(np.abs(got[:, col] - exact) <= 8 * eps * np.maximum(np.abs(exact), x)), x

    def test_series_constants_are_the_legendre_rule_and_transform(self):
        # the literal 10-point rule, and the series a degree-9 polynomial
        # gives at its nodes: its own Legendre coefficients, those of its
        # integral from -1, and its values, all against numpy.polynomial
        from numpy.polynomial import legendre as L

        eps = np.finfo(float).eps
        x, w = L.leggauss(10)
        assert np.max(np.abs(gd._GL10_X - x)) <= eps and np.max(np.abs(gd._GL10_W - w)) <= eps
        c = np.random.default_rng(5).normal(size=10)
        f = L.legval(gd._GL10_X, c)
        assert np.allclose(gd._LEG @ f, c, rtol=0, atol=1e-14)
        assert np.allclose(gd._LEG_INT @ f, L.legint(c, lbnd=-1), rtol=0, atol=1e-14)
        d = np.linspace(0.0, 2.0, 9)
        rise = gd._legendre_rise(d, 11) + gd._P_LEFT[:, None]
        assert np.allclose(rise, L.legvander(d - 1.0, 10).T, rtol=0, atol=1e-14)


class TestIntegrateGeodesic:
    def test_zero_velocity_stays_put(self):
        gen = G.DiversityWeighted(0.5)
        th0 = to_primal(Q3).theta
        c = gd.integrate_geodesic(gen, th0, np.zeros(2), "primal", steps=32)
        assert np.allclose(c.points, th0, atol=1e-14)

    def test_matches_closed_form_trace(self):
        for name, gen in builtin_zoo(3).items():
            ref = gd.primal_geodesic(gen, Q3, R3)
            c = gd.integrate_geodesic(gen, ref.points[0], ref.velocities[0],
                                      "primal", steps=256)
            rk4 = integrate_geodesic_stages(gen, ref.points[0], ref.velocities[0],
                                            "primal", steps=256)
            for curve in (c, rk4):
                trace = curve.euclidean_trace()
                assert polyline_hausdorff(trace, ref.euclidean_trace()) < 1e-6, name
                assert np.max(np.abs(curve.points[-1] - ref.points[-1])) < 1e-6, name
            assert polyline_hausdorff(c.euclidean_trace(), rk4.euclidean_trace()) < 1e-6, name

    def test_dual_integration_matches_closed_form(self):
        gen = G.DiversityWeighted(0.5)
        ref = gd.dual_geodesic(gen, Q3, P3)
        c = gd.integrate_geodesic(gen, ref.points[0], ref.velocities[0], "dual", steps=256)
        rk4 = integrate_geodesic_stages(gen, ref.points[0], ref.velocities[0], "dual", steps=256)
        assert polyline_hausdorff(c.euclidean_trace(), ref.euclidean_trace()) < 1e-6
        assert polyline_hausdorff(rk4.euclidean_trace(), ref.euclidean_trace()) < 1e-6
        assert polyline_hausdorff(c.euclidean_trace(), rk4.euclidean_trace()) < 1e-6

    def test_reproduces_both_geodesics_of_every_family(self):
        # started from a geodesic's first point and velocity, the exponential
        # map retraces it: points and (relative) velocities to 1e-12, on
        # interior pairs (chords that end near a face: the next test)
        rng = np.random.default_rng(12)
        for n in (3, 5, 10):
            for name, gen in builtin_zoo(n).items():
                for _ in range(3):
                    q, r = 0.85 * dirichlet_points(rng, n, 2) + 0.15 / n
                    for which, build in (("primal", gd.primal_geodesic),
                                         ("dual", gd.dual_geodesic)):
                        ref = build(gen, q, r)
                        c = gd.integrate_geodesic(gen, ref.points[0], ref.velocities[0], which)
                        assert np.array_equal(c.times, ref.times)
                        assert np.max(np.abs(c.points - ref.points)) < 1e-12, (n, name, which)
                        rel = (np.abs(c.velocities - ref.velocities).max(axis=1)
                               / np.abs(ref.velocities).max(axis=1))
                        assert rel.max() < 1e-12, (n, name, which)

    def test_reproduces_stiff_chords(self):
        # the first entry of the chord's e^theta runs from 34 to 0.0014: a
        # table uniform in the chord parameter missed the time change by
        # 2e-5 relative and these points by up to 4.5e-4
        q, r = np.random.default_rng(0).dirichlet(np.ones(3), 2)
        for name, gen in builtin_zoo(3).items():
            for which, build in (("primal", gd.primal_geodesic), ("dual", gd.dual_geodesic)):
                ref = build(gen, q, r)
                c = gd.integrate_geodesic(gen, ref.points[0], ref.velocities[0], which)
                assert np.max(np.abs(c.points - ref.points)) < 1e-11, (name, which)

    def test_reproduces_boundary_geodesics(self):
        # the same for chords with one end of 1e-9 or 1e-12 entries, started at
        # that end of the chord of x = e^theta (primal) or y = e^-phi (dual),
        # and run backward from the last point where that end comes last.
        # Started at the far end the map is ill-conditioned, not the
        # geodesic: there a change of one rounding unit in the first velocity
        # moves the last point by about 4e-5 (gdw, n = 3)
        for n in (3, 10):
            base = np.random.default_rng(7).dirichlet(np.ones(n), 2)
            for name in ("diversity", "mix"):
                gen = builtin_zoo(n)[name]
                for small, end in [(1e-9, 0), (1e-9, 1), (1e-12, 0), (1e-12, 1)]:
                    ends = base.copy()
                    ends[end, 0] = small
                    ends[end] /= ends[end].sum()
                    for which, build in (("primal", gd.primal_geodesic), ("dual", gd.dual_geodesic)):
                        ref = build(gen, *ends)
                        # a small entry of q makes its y = e^-phi large, not small
                        back = (end == 1) != (which == "dual")
                        start, v, pts = ((ref.points[-1], -ref.velocities[-1], ref.points[::-1])
                                         if back else (ref.points[0], ref.velocities[0], ref.points))
                        c = gd.integrate_geodesic(gen, start, v, which)
                        assert np.max(np.abs(c.points - pts)) < 1e-12, (n, name, small, end, which)

    def test_first_integral_conserved(self):
        # the oracle's first integral of the geodesic equation, evaluated
        # along the exponential map, stays at its initial value
        gen = G.DiversityWeighted(0.5)
        for which, build, target in (("primal", gd.primal_geodesic, R3),
                                     ("dual", gd.dual_geodesic, P3)):
            ref = build(gen, Q3, target)
            c = gd.integrate_geodesic(gen, ref.points[0], ref.velocities[0], which, steps=128)
            inv = np.array([geodesic_invariant(gen, x, v, which)
                            for x, v in zip(c.points, c.velocities)])
            drift = np.abs(inv - inv[0]).max()
            assert drift < 1e-12 * np.abs(inv[0]).max(), which

    def test_shooting_with_scaled_inverse_exp(self):
        # scale the unit initial direction by a 1-d search on the chord
        # parameter of the endpoint; the hit must land on r
        gen = G.DiversityWeighted(0.5)
        th_q = to_primal(Q3).theta
        th_r = to_primal(R3).theta
        v = gd.inverse_exp(gen, Q3, R3, "primal")

        e_q, e_r = np.exp(psi(th_q)), np.exp(psi(th_r))

        def chord_coordinate(s):
            end = gd.integrate_geodesic(gen, th_q, s * v, "primal", steps=128).points[-1]
            return (np.exp(psi(end)) - e_q) / (e_r - e_q) - 1.0

        s_hi = 1.0
        while chord_coordinate(s_hi) < 0:
            s_hi *= 2.0
        s_star = brentq(chord_coordinate, 1e-8, s_hi, xtol=1e-12)
        end = gd.integrate_geodesic(gen, th_q, s_star * v, "primal", steps=256).points[-1]
        assert np.max(np.abs(from_primal(end).p - R3)) < 1e-5

    def test_blowup_reported(self):
        # theta_1 = log1p(-3 tau) leaves the simplex at t* = 7/12, between
        # the output times 37/64 and 38/64
        gen = G.DiversityWeighted(0.5)
        with pytest.raises(gd.GeodesicBlowupError) as err:
            gd.integrate_geodesic(gen, np.zeros(2), np.array([-3.0, 0.0]),
                                  "primal", steps=64)
        t_star = float(re.search(r"t\*=(\S+)", str(err.value)).group(1))
        assert abs(t_star - 7.0 / 12.0) < 1e-12
        assert err.value.last_valid_t == 37.0 / 64.0

    def test_large_velocity_stays_finite(self):
        # for the equal-weighted generator theta_1(t) = 3 log1p(400 t / 3):
        # large, but finite at every time
        gen = G.equal_weighted(3)
        c = gd.integrate_geodesic(gen, np.zeros(2), np.array([400.0, 0.0]),
                                  "primal", steps=64)
        assert np.max(np.abs(c.points[:, 0] - 3.0 * np.log1p(400.0 * c.times / 3.0))) < 1e-12
        assert np.max(np.abs(c.points[:, 1])) < 1e-12

    def test_arguments_checked(self):
        gen = G.DiversityWeighted(0.5)
        th0 = to_primal(Q3).theta
        v = np.array([0.5, -0.2])
        bad = [
            dict(which="Primal"),
            dict(steps=0),
            dict(t_end=float("nan")),
            dict(t_end=0.0),
            dict(v0=np.array([np.nan, 0.0])),
            dict(v0=np.array([0.5, -0.2, 0.1])),
        ]
        for kwargs in bad:
            args = dict(xi0=th0, v0=v, which="primal", steps=16, t_end=1.0) | kwargs
            with pytest.raises(ValueError):
                gd.integrate_geodesic(gen, **args)


class TestFlows:
    def test_stationary_at_target(self):
        gen = G.DiversityWeighted(0.5)
        c = gd.primal_flow(gen, Q3, Q3, horizon=1.0, steps=16)
        assert np.allclose(c.points, c.points[0], atol=1e-12)

    def test_divergence_decreases_and_converges(self):
        for name, gen in builtin_zoo(3).items():
            c = gd.primal_flow(gen, Q3, R3, horizon=25.0, steps=600)
            th_r = to_primal(R3).theta
            vals = [l_divergence_primal(gen, th_r, th).value for th in c.points[::40]]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:])), name
            assert np.max(np.abs(c.points[-1] - th_r)) < 1e-6, name

    def test_dual_flow_converges(self):
        for name, gen in builtin_zoo(3).items():
            c = gd.dual_flow(gen, Q3, P3, horizon=25.0, steps=600)
            ph_p = dual_coord(gen, to_primal(P3).theta).phi
            assert np.max(np.abs(c.points[-1] - ph_p)) < 1e-6, name

    def test_flow_speed_identity(self):
        # d/dt T(r | flow) = -|velocity|^2 in the Riemannian metric
        gen = G.DiversityWeighted(0.5)
        c = gd.primal_flow(gen, Q3, R3, horizon=4.0, steps=400)
        th_r = to_primal(R3).theta
        for idx in (40, 120, 240):
            th = c.points[idx]
            v = c.velocities[idx]
            dt = c.times[idx + 1] - c.times[idx - 1]
            dT = (
                l_divergence_primal(gen, th_r, c.points[idx + 1]).value
                - l_divergence_primal(gen, th_r, c.points[idx - 1]).value
            ) / dt
            speed2 = metric_primal(gen, th).inner(v, v)
            assert dT == pytest.approx(-speed2, rel=1e-3)

    def test_trace_coincides_with_geodesic(self):
        for name, gen in builtin_zoo(3).items():
            flow = gd.primal_flow(gen, Q3, R3, horizon=25.0, steps=600)
            geodesic = gd.primal_geodesic(gen, Q3, R3)
            d = polyline_hausdorff(flow.euclidean_trace(), geodesic.euclidean_trace())
            assert d < 1e-5, name
            dual_fl = gd.dual_flow(gen, Q3, P3, horizon=25.0, steps=600)
            dual_geo = gd.dual_geodesic(gen, Q3, P3)
            d2 = polyline_hausdorff(dual_fl.euclidean_trace(), dual_geo.euclidean_trace())
            assert d2 < 1e-5, name


    def test_stored_velocity_is_rhs_at_stored_point(self, monkeypatch):
        # every stored velocity must be the right-hand side at its stored
        # point, bit for bit.  Equal weights make the dual coordinate equal
        # to the primal one, so the dual flow's state is its stored point.
        gen = G.equal_weighted(3)
        steps = 4
        rows = bound_weight_evaluations(monkeypatch, flow_weight_limit(steps))
        th_p = to_primal(P3).theta
        c = gd.primal_flow(gen, Q3, P3, horizon=20.0, steps=steps)
        for th, v in zip(c.points, c.velocities):
            assert np.array_equal(v, gd._primal_flow_rhs(gen, th, th_p))
        rows.clear()
        c = gd.dual_flow(gen, Q3, P3, horizon=20.0, steps=steps)
        ph_p = dual_coord(gen, th_p).phi
        for ph, v in zip(c.points, c.velocities):
            ph_dot, ph_again = gd._dual_flow_rhs(gen, ph, ph_p)
            assert np.array_equal(v, ph_dot)
            assert np.array_equal(ph, ph_again)

    def test_flow_finishes_when_divergence_is_rounding_noise(self, monkeypatch):
        # Near the target T(r | .) is rounding noise of a few ulp of f(theta_r)
        # (here -1.3e-15 at t = 18.3); a fixed 1e-15 acceptance slack once
        # halved RK4 steps on this flow down to 1.5e-9 without end.
        gen = G.GeneralizedDiversityWeighted([0.5, 0.875, 1.25, 1.625, 2.0], 0.4)
        q = np.array([0.11778326405148865, 0.39472939220760395, 0.0821531987110853,
                      0.15298074874072848, 0.25235339628909376])
        r = np.array([0.3140016220541149, 0.24460781570134407, 0.10171520919066944,
                      0.1399603425586504, 0.19971501049522106])
        steps = 800
        bound_weight_evaluations(monkeypatch, flow_weight_limit(steps))
        c = gd.primal_flow(gen, q / q.sum(), r / r.sum(), horizon=20.0, steps=steps)
        assert c.times[-1] == pytest.approx(20.0, abs=1e-12)
        th_r = to_primal(r / r.sum()).theta
        vals = np.array([l_divergence_primal(gen, th_r, th).value for th in c.points])
        assert np.all(np.diff(vals) <= flow_slack(gen, th_r))

    def test_flow_halves_a_try_that_leaves_the_finite_range(self, monkeypatch):
        # with dt = 5 the first RK4 tries of a stepped flow overflow or reach
        # the simplex boundary in floating point, where T cannot be evaluated
        gen = G.DiversityWeighted(0.5)
        q, r = np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.25, 0.15])
        steps = 4
        rows = bound_weight_evaluations(monkeypatch, flow_weight_limit(steps))
        c = gd.primal_flow(gen, q, r, horizon=20.0, steps=steps)
        assert c.times[-1] == pytest.approx(20.0, abs=1e-12)
        assert np.all(np.isfinite(c.points)) and np.all(np.isfinite(c.velocities))
        th_r = to_primal(r).theta
        vals = np.array([l_divergence_primal(gen, th_r, th).value for th in c.points])
        assert np.all(np.diff(vals) <= flow_slack(gen, th_r))
        rows.clear()
        d = gd.dual_flow(gen, q, r, horizon=20.0, steps=steps)
        assert d.times[-1] == pytest.approx(20.0, abs=1e-12)
        assert np.all(np.isfinite(d.points))

    def test_agrees_with_rk4_at_four_times_the_steps(self):
        # the closed-form flows against step-controlled RK4 in exponential
        # coordinates.  Horizon 5 covers the flows' whole approach (T falls by
        # e^-10).  The oracle limits the comparison: RK4 converges onto the
        # closed form at fourth order, and at 800 steps it is within 1e-10
        # here, but off by 2e-5 over horizon 20 and by 6e-8 for an n = 10 pair
        # with an entry of 0.005; the boundary case is tested by quadrature
        for n in (3, 10):
            if n == 3:
                q, r = Q3, R3
            else:
                q, r = np.random.default_rng(10).dirichlet(4.0 * np.ones(n), size=2)
            cases = [(name, gen, kind, flow) for name, gen in builtin_zoo(n).items()
                     for kind, flow in (("primal", gd.primal_flow), ("dual", gd.dual_flow))]
            oracle = rk4_flows([(gen, q, r, kind) for _, gen, kind, _ in cases],
                               horizon=5.0, steps=800)
            for (name, gen, kind, flow), (times, pts, _) in zip(cases, oracle):
                c = flow(gen, q, r, horizon=5.0, steps=200)
                assert times.size == 801, (n, name, kind)
                assert np.max(np.abs(times[::4] - c.times)) < 1e-12
                assert np.max(np.abs(pts[::4] - c.points)) < 1e-9, (n, name, kind)

    def test_rk4_oracle_halves_each_row_on_its_own(self):
        # steps of 10 make T rise on some rows, which halve their steps while
        # the others go on: each row as one of ten equals the row alone
        cases = [(gen, Q3, R3, kind) for gen in builtin_zoo(3).values()
                 for kind in ("primal", "dual")]
        together = rk4_flows(cases, horizon=20.0, steps=2)
        assert len({times.size for times, _, _ in together}) > 1
        for case, row in zip(cases, together):
            alone = rk4_flows([case], horizon=20.0, steps=2)[0]
            assert all(np.array_equal(a, b) for a, b in zip(row, alone))
            assert row[0][-1] == 20.0 and np.all(np.diff(row[0]) <= 10.0)

    def test_flow_time_is_the_speed_integral_near_the_boundary(self):
        # q_1 far below r_1 makes the speed Z = sum pi_i x_{r,i} / x_i + pi_n
        # steep over a length x_{q,1} / x_{r,1} ~ 1e-9 of the chord parameter s
        # at s = 0; each row's time must still be int_0^s Z, here by adaptive
        # quadrature on geometric pieces
        q = np.array([3e-10, 0.4, 0.6 - 3e-10])
        x_q, x_r = np.exp(to_primal(q).theta), np.exp(to_primal(R3).theta)
        for name, gen in builtin_zoo(3).items():
            def speed(s):
                x = x_q * np.exp(-s) - x_r * np.expm1(-s)
                pi = gen.portfolio(from_primal(np.log(x)).p)
                return pi[:-1] @ (x_r / x) + pi[-1]

            c = gd.primal_flow(gen, q, R3, horizon=2.0, steps=8)
            # s from the first component, which resolves it to rounding
            x_1 = np.exp(c.points[1:, 0])
            s = -np.log1p((x_1 - x_q[0]) / (x_q[0] - x_r[0]))
            for t, s_row in zip(c.times[1:], s):
                cuts = np.concatenate([[0.0], np.geomspace(1e-12, s_row, 30)])
                ref = sum(quad(speed, a, b, epsabs=1e-14, epsrel=1e-13)[0]
                          for a, b in zip(cuts[:-1], cuts[1:]))
                assert abs(ref - t) < 1e-10, (name, t)

    def test_dual_flow_newton_rows_start_warm_along_the_chord(self, monkeypatch):
        # the pair of TestDualGeodesic: about 6.6k rows of u from the
        # interpolant through the rows solved before each call, 9.7k from a
        # spline through a dense solve of the flow grid
        q, p = np.full(10, 0.1), np.linspace(1.0, 2.0, 10) / 15.0
        rows = bound_newton_evaluations(monkeypatch, 11_000)
        gd.dual_flow(builtin_zoo(10)["mix"], q, p)
        assert sum(rows) > 0

    @pytest.mark.parametrize("small", [1e-200, 1e-299])
    def test_flows_from_an_entry_near_the_float_floor(self, small):
        # a stop test of the former Newton polish once overflowed here,
        # which the suite's warning filter turns into an error
        q = np.array([small, 0.4, 0.6 - small])
        for name in ("equal", "mix"):
            gen = builtin_zoo(3)[name]
            for flow in (gd.primal_flow, gd.dual_flow):
                for a, b in ((q, R3), (R3, q)):
                    c = flow(gen, a, b, horizon=5.0, steps=100)
                    assert np.all(np.isfinite(c.velocities)), (name, flow.__name__)

    def test_long_horizon_dual_flow_ends_at_rest(self):
        # past the end of the flow grid the Newton starts stay at the last
        # grid node; a spline extrapolated there ends near 3e-11
        gen = builtin_zoo(3)["mix"]
        c = gd.dual_flow(gen, (0.2, 0.3, 0.5), (0.5, 0.3, 0.2), horizon=2000.0, steps=800)
        assert np.max(np.abs(c.velocities[-1])) <= 1e-14

    def test_long_horizon_keeps_the_table_size(self, monkeypatch):
        # past the point where e^-s |x_q - x_r| is below rounding the flow
        # time grows linearly, so the quadrature table ends there: both
        # horizons evaluate the same table and the velocity at 51 rows
        gen = G.DiversityWeighted(0.5)
        th_r = to_primal(R3).theta
        rows = bound_weight_evaluations(monkeypatch, flow_weight_limit(50))
        gd.primal_flow(gen, Q3, R3, horizon=20.0, steps=50)
        short = sum(rows)
        rows.clear()
        c = gd.primal_flow(gen, Q3, R3, horizon=1e4, steps=50)
        assert len(c) == 51
        assert np.array_equal(c.times, np.linspace(0.0, 1e4, 51))
        assert np.max(np.abs(c.points[-1] - th_r)) < 1e-12
        assert sum(rows) == short

    @pytest.mark.parametrize("flow", [gd.primal_flow, gd.dual_flow])
    @pytest.mark.parametrize("horizon, steps", [(20.0, 0), (20.0, -3), (-1.0, 10), (0.0, 10),
                                                (float("nan"), 10), (float("inf"), 10)])
    def test_rejects_bad_horizon_or_steps(self, flow, horizon, steps):
        with pytest.raises(ValueError):
            flow(G.DiversityWeighted(0.5), Q3, R3, horizon=horizon, steps=steps)

    def test_uniform_output_times(self):
        gen = G.DiversityWeighted(0.5)
        for flow in (gd.primal_flow, gd.dual_flow):
            c = flow(gen, Q3, P3, horizon=7.5, steps=37)
            assert np.array_equal(c.times, np.linspace(0.0, 7.5, 38))


class TestInverseExp:
    def test_zero_at_target(self):
        gen = G.DiversityWeighted(0.5)
        assert np.allclose(gd.inverse_exp(gen, Q3, Q3, "primal"), 0.0)
        assert np.allclose(gd.inverse_exp(gen, Q3, Q3, "dual"), 0.0)

    def test_unit_metric_norm(self):
        gen = G.DiversityWeighted(0.5)
        v = gd.inverse_exp(gen, Q3, R3, "primal")
        g = metric_primal(gen, to_primal(Q3).theta)
        assert g.norm(v) == pytest.approx(1.0, rel=1e-12)

    def test_collinear_with_primal_geodesic_velocity(self):
        for name, gen in builtin_zoo(3).items():
            v = gd.inverse_exp(gen, Q3, R3, "primal")
            v0 = gd.primal_geodesic(gen, Q3, R3).velocities[0]
            cosang = v @ v0 / (np.linalg.norm(v) * np.linalg.norm(v0))
            assert np.arccos(np.clip(cosang, -1, 1)) < 1e-6, name

    def test_collinear_with_dual_geodesic_velocity(self):
        for name, gen in builtin_zoo(3).items():
            v = gd.inverse_exp(gen, Q3, P3, "dual")
            v0 = gd.dual_geodesic(gen, Q3, P3).velocities[0]
            cosang = v @ v0 / (np.linalg.norm(v) * np.linalg.norm(v0))
            assert np.arccos(np.clip(cosang, -1, 1)) < 1e-6, name


class TestPythagoreanSign:
    def test_validates_each_point_once(self, monkeypatch):
        # p, q and r are coerced once at the boundary; nothing below it
        # builds a SimplexPoint again
        init, built = S.SimplexPoint.__init__, []

        def counting_init(self, p):
            built.append(1)
            init(self, p)

        monkeypatch.setattr(S.SimplexPoint, "__init__", counting_init)
        for name, gen in builtin_zoo(3).items():
            built.clear()
            gd.pythagorean_sign(gen, P3, Q3, R3)
            assert len(built) <= 3, name

    def test_degenerate_triple(self):
        gen = G.DiversityWeighted(0.5)
        res = gd.pythagorean_sign(gen, Q3, Q3, R3)
        assert abs(res.gap) < 1e-12
        assert abs(res.inner) < 1e-12

    def test_three_sign_paths_agree(self, rng):
        for n in (3, 4):
            for name, gen in builtin_zoo(n).items():
                for _ in range(40):
                    p, q, r = dirichlet_points(rng, n, 3)
                    res = gd.pythagorean_sign(gen, p, q, r)
                    if abs(res.inner) > 1e-9:
                        assert np.sign(res.gap) == np.sign(res.inner), name
                        assert np.sign(res.inner) == np.sign(res.sign_quantity), name

    @staticmethod
    def _identity_bounds(gen, P, res):
        """Rounding-scaled bounds of |gap + log1p(-inner)| and |inner - s|.

        The gap is three Ts, each log(pi(at) . to/at) - (phi(to) - phi(at)),
        so its rounding scales with the logs and the phi values it adds.  The
        inner product and the sign quantity s add n-term sums of size about
        1 + |inner| + |s|, and log1p(-inner) multiplies an error of inner by
        1 / (1 - inner).
        """
        n = P.shape[1]
        logv = np.abs(gen.log_gen(P))
        Pi = gen.portfolio(P)
        logs = [abs(math.log(Pi[a] @ (P[t] / P[a]))) for t, a in ((1, 0), (2, 1), (2, 0))]
        on_inner = n * (1.0 + abs(res.inner) + abs(res.sign_quantity))
        on_gap = 1.0 + sum(logs) + 2.0 * logv.sum() + on_inner / (1.0 - res.inner)
        eps = np.finfo(float).eps
        return 8 * eps * on_gap, 8 * eps * on_inner

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_pythagorean_identity_holds_to_rounding(self, n):
        # the paper's generalized Pythagorean theorem in exact form:
        # T(q|p) + T(r|q) - T(r|p) = -log(1 - <dual velocity to p, primal
        # velocity to r>_q), and the inner product equals the closed form
        # 1 - sum_k Pi_k(q,p) Pi_k(r,q) / pi_k(q); the gap and the sign
        # quantity come from the shared ratios, the inner product from the
        # metric route, so the residuals compare independent computations
        rng = np.random.default_rng(300 + n)
        for name, gen in builtin_zoo(n).items():
            for k in range(12):
                P = rng.dirichlet(np.ones(n), 3)
                if k % 3 == 1:  # one asset near the boundary in all three
                    P[:, rng.integers(n)] = 1e-12 * rng.uniform(0.5, 2.0, 3)
                    P /= P.sum(axis=1, keepdims=True)
                if k % 3 == 2:  # q near p
                    P[1] = P[0] * np.exp(1e-4 * rng.standard_normal(n))
                    P[1] /= P[1].sum()
                res = gd.pythagorean_sign(gen, *P)
                on_gap, on_inner = self._identity_bounds(gen, P, res)
                assert abs(res.gap + math.log1p(-res.inner)) <= on_gap, (name, k)
                assert abs(res.inner - res.sign_quantity) <= on_inner, (name, k)

    def test_pythagorean_identity_of_a_custom_generator(self):
        # a CustomGenerator's dpi_dtheta is a central second difference at
        # step h = 3e-4 max(1, |theta|), so the metric route to the inner
        # product carries an error of order h^2 ~ 1e-7 on top of rounding;
        # the bounds allow it
        gen = G.CustomGenerator(lambda p: 2.0 * np.log(np.sum(np.sqrt(p))))
        rng = np.random.default_rng(360)
        for n in (3, 10):
            for k in range(6):
                P = rng.dirichlet(np.ones(n), 3)
                res = gd.pythagorean_sign(gen, *P)
                on_gap, on_inner = self._identity_bounds(gen, P, res)
                fd = 1e-7 * (1.0 + abs(res.inner))
                assert abs(res.gap + math.log1p(-res.inner)) <= on_gap + fd / (1.0 - res.inner)
                assert abs(res.inner - res.sign_quantity) <= on_inner + fd

    def test_gap_equals_transport_gap(self, rng):
        for name, gen in builtin_zoo(3).items():
            p, q, r = dirichlet_points(rng, 3, 3)
            res = gd.pythagorean_sign(gen, p, q, r)
            assert res.gap == pytest.approx(pyth_transport_gap(gen, p, q, r), abs=1e-9), name

    def test_angle_thresholds(self, rng):
        # gap > 0 iff angle < 90 degrees
        gen = G.equal_weighted(3)
        for _ in range(50):
            p, q, r = dirichlet_points(rng, 3, 3)
            res = gd.pythagorean_sign(gen, p, q, r)
            if res.gap > 1e-8:
                assert res.angle_deg < 90.0
            elif res.gap < -1e-8:
                assert res.angle_deg > 90.0

    @pytest.mark.parametrize("deg", [1e-6, 1e-4, 1e-2, 1.0, 30.0, 59.9, 60.1, 90.0, 119.9, 120.1, 150.0,
                                     179.0, 179.9, 179.999])
    def test_angle_is_accurate_at_every_angle(self, deg):
        # against a 60-digit angle of the same float vectors: acos of the
        # cosine is off by up to 8e7 eps (radians) at 1e-6 degrees
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        rng = np.random.default_rng(int(deg * 1e6))
        for dim in (2, 3, 5, 9):
            for _ in range(5):
                basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
                th = math.radians(deg)
                a = basis[:, 0] * rng.uniform(0.1, 10.0)
                b = (math.cos(th) * basis[:, 0] + math.sin(th) * basis[:, 1]) * rng.uniform(0.1, 10.0)
                A, B = ([mpmath.mpf(float(x)) for x in v] for v in (a, b))
                dot = mpmath.fsum(x * y for x, y in zip(A, B))
                cross = mpmath.sqrt(mpmath.fsum(x * x for x in A) * mpmath.fsum(y * y for y in B) - dot**2)
                ref = mpmath.atan2(cross, dot)
                got = math.radians(gd._angle_deg(a, b, float(a @ b)))
                assert abs(got - ref) <= 4 * np.finfo(float).eps

    def test_zero_gap_triples_have_orthogonal_geodesics(self, rng):
        # root-find q on a chord so that the gap vanishes; the inner product
        # must vanish with it
        gen = G.DiversityWeighted(0.5)
        for _ in range(10):
            p, r, a, b = dirichlet_points(rng, 3, 4)

            def gap_at(s):
                q = (1 - s) * a + s * b
                return gd.pythagorean_sign(gen, p, q, r).gap

            g0, g1 = gap_at(0.0), gap_at(1.0)
            if g0 * g1 >= 0:
                continue
            s_star = brentq(gap_at, 0.0, 1.0, xtol=1e-14)
            q = (1 - s_star) * a + s_star * b
            res = gd.pythagorean_sign(gen, p, q, r)
            assert abs(res.inner) < 1e-7


class TestRegion:
    def test_p_and_r_are_boundary_points(self, rng):
        gen = G.DiversityWeighted(0.5)
        sample = gd.region_sample(gen, P3, R3, grid_resolution=24)
        # the two appended points are p and r
        assert np.allclose(sample.points[-2], P3)
        assert np.allclose(sample.points[-1], R3)
        assert abs(sample.gap[-2]) < 1e-12
        assert abs(sample.gap[-1]) < 1e-12
        assert sample.boundary[-2] and sample.boundary[-1]
        assert sample.in_region[-2] and sample.in_region[-1]

    def test_region_nonempty_and_bounded(self):
        gen = G.equal_weighted(3)
        sample = gd.region_sample(gen, P3, R3, grid_resolution=40)
        assert sample.resolution == 40
        inside = sample.in_region.sum()
        assert 0 < inside < sample.points.shape[0]
        assert sample.boundary_polyline.shape[0] > 0

    def test_permutation_symmetry_at_barycenter(self):
        from itertools import permutations

        gen = G.equal_weighted(3)
        bary = np.full(3, 1 / 3)
        res = 30
        sample = gd.region_sample(gen, bary, bary, grid_resolution=res)
        lattice = np.rint(sample.points[:-2] * res).astype(int)
        classification = {tuple(key): bool(flag)
                          for key, flag in zip(lattice, sample.in_region[:-2])}
        for perm in permutations(range(3)):
            for key, flag in classification.items():
                permuted = tuple(key[i] for i in perm)
                assert classification[permuted] == flag

    def test_membership_gap_vectorization(self, rng):
        gen = G.DiversityWeighted(0.5)
        Q = dirichlet_points(rng, 3, 32)
        gaps = gd.region_gap(gen, P3, R3, Q)
        for q, gval in zip(Q[:8], gaps[:8]):
            direct = (
                l_divergence(gen, q, P3).value
                + l_divergence(gen, R3, q).value
                - l_divergence(gen, R3, P3).value
            )
            assert gval == pytest.approx(direct, abs=1e-12)

    def test_requires_three_assets(self):
        gen = G.equal_weighted(4)
        with pytest.raises(ValueError):
            gd.region_sample(gen, np.full(4, 0.25), np.full(4, 0.25), 10)

    def test_resolution_below_three_rejected(self):
        gen = G.DiversityWeighted(0.5)
        for res in (2, 1, 0, -4):
            with pytest.raises(ValueError, match="at least 3"):
                gd.region_sample(gen, [0.3, 0.3, 0.4], [0.5, 0.2, 0.3], grid_resolution=res)

    def test_matches_lattice_scan_bitwise(self):
        placements = [
            (G.DiversityWeighted(0.5), [0.3, 0.3, 0.4], [0.5, 0.2, 0.3]),
            (G.equal_weighted(3), [0.5, 0.25, 0.25], [0.2, 0.3, 0.5]),
            (G.ConstantWeighted([0.2, 0.3, 0.5]), [0.6, 0.25, 0.15], [0.2, 0.5, 0.3]),
        ]
        for gen, p, r in placements:
            for res in (3, 4, 24, 120):
                got = gd.region_sample(gen, p, r, grid_resolution=res)
                ref = region_sample_scan(gen, p, r, grid_resolution=res)
                for field in ("points", "gap", "in_region", "boundary", "boundary_polyline"):
                    a, b = getattr(got, field), getattr(ref, field)
                    assert a.dtype == b.dtype and a.shape == b.shape, (gen.name, res, field)
                    assert np.array_equal(a, b), (gen.name, res, field)
                if res == 120:
                    assert got.boundary_polyline.shape[0] > 0, gen.name

    def test_membership_gap_general_dimension(self, rng):
        # the gap formula answers membership queries in any dimension
        gen = G.DiversityWeighted(0.5)
        p, r = dirichlet_points(rng, 5, 2)
        Q = dirichlet_points(rng, 5, 16)
        gaps = gd.region_gap(gen, p, r, Q)
        for q, gval in zip(Q[:4], gaps[:4]):
            direct = (
                l_divergence(gen, q, p).value
                + l_divergence(gen, r, q).value
                - l_divergence(gen, r, p).value
            )
            assert gval == pytest.approx(direct, abs=1e-12)
