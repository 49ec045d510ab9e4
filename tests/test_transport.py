import numpy as np
import pytest

from lgeo import generators as G
from lgeo import geodesics as gd
from lgeo import transport as T
from lgeo.divergence import CouplingSample, is_c_cyclical_monotone, optimal_assignment
from lgeo.simplex import from_primal, from_primal_many, psi, to_primal

from conftest import builtin_zoo, dirichlet_points
from _oracles import brute_force_optimal, point_segment_distance, polyline_hausdorff


class TestAction:
    def test_constant_curve_costs_log_n(self):
        th = np.array([0.8, -0.4])
        ts = np.linspace(0, 1, 17)
        c = gd.Curve(ts, np.tile(th, (17, 1)), "primal", velocities=np.zeros((17, 2)))
        av = T.action(c)
        assert av.feasible
        assert av.value == pytest.approx(np.log(3), abs=1e-12)

    def test_minimizing_curve_attains_cost(self, rng):
        for _ in range(5):
            th = rng.normal(size=3)
            ph = rng.normal(size=3)
            c = T.minimizing_curve(th, ph)
            av = T.action(c)
            assert av.value == pytest.approx(psi(th - ph), abs=1e-6)

    def test_perturbed_curves_cost_strictly_more(self, rng):
        th = np.array([0.8, -0.4])
        ph = np.array([-0.2, 0.5])
        base = T.minimizing_curve(th, ph)
        base_val = T.action(base).value
        for _ in range(100):
            bump = np.sin(np.pi * base.times)[:, None] * rng.normal(size=(1, 2)) * 0.08
            perturbed = gd.Curve(base.times, base.points + bump, "primal")
            val = T.action(perturbed).value
            assert val > base_val + 1e-10

    def test_jensen_lower_bound_on_random_curves(self, rng):
        # any feasible curve costs at least the straight-line cost
        for _ in range(30):
            th = rng.normal(size=2)
            ph = rng.normal(size=2)
            ts = np.linspace(0, 1, 33)
            wiggle = np.sin(np.pi * ts)[:, None] * rng.normal(size=(1, 2)) * 0.3
            pts = (1 - ts)[:, None] * th + ts[:, None] * ph + wiggle
            av = T.action(gd.Curve(ts, pts, "primal"))
            if av.feasible:
                assert av.value >= psi(th - ph) - 1e-8

    def test_infeasible_curve_flagged(self):
        # a violent retrograde move makes the integrand argument negative
        ts = np.linspace(0, 1, 65)
        pts = np.zeros((65, 2))
        pts[:, 0] = -40.0 * np.sin(np.pi * ts)
        av = T.action(gd.Curve(ts, pts, "primal"))
        assert not av.feasible
        assert av.value == np.inf

    def test_action_requires_primal_curve(self):
        c = gd.Curve(np.array([0.0, 1.0]), np.zeros((2, 2)), "dual")
        with pytest.raises(ValueError):
            T.action(c)

    def test_both_action_representations_agree(self, rng):
        # the integrand can also be written with the derivative of
        # exp(-psi(gamma(0) - gamma(t))); check by finite differences
        th = rng.normal(size=2)
        ph = rng.normal(size=2)
        c = T.minimizing_curve(th, ph, grid=129)
        spl = c.spline()
        ts = np.linspace(0.05, 0.95, 7)
        for t in ts:
            x = th - spl(t)
            qn = np.exp(-psi(x))
            heads = from_primal_many(x[None])[0][:-1]
            qdot_chain = qn * heads @ spl.derivative(1)(t)
            h = 1e-6
            qdot_fd = (
                np.exp(-psi(th - spl(t + h))) - np.exp(-psi(th - spl(t - h)))
            ) / (2 * h)
            assert qdot_chain == pytest.approx(qdot_fd, rel=1e-6, abs=1e-9)


class TestMinimizingCurve:
    def test_constant_when_endpoints_equal(self, rng):
        th = rng.normal(size=2)
        c = T.minimizing_curve(th, th)
        assert np.allclose(c.points, th, atol=1e-15)

    def test_endpoints_exact(self, rng):
        th = rng.normal(size=3)
        ph = rng.normal(size=3)
        c = T.minimizing_curve(th, ph)
        assert np.max(np.abs(c.points[0] - th)) < 1e-12
        assert np.max(np.abs(c.points[-1] - ph)) < 1e-12

    def test_portfolio_path_is_linear(self, rng):
        th = rng.normal(size=2)
        ph = rng.normal(size=2)
        c = T.minimizing_curve(th, ph, grid=11)
        q1 = from_primal(th - ph).p
        n = 3
        for t, gamma in zip(c.times, c.points):
            q_t = from_primal(th - gamma).p
            expected = (1 - t) / n + t * q1
            assert np.max(np.abs(q_t - expected)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            T.minimizing_curve(np.zeros(2), np.zeros(3))


class TestDisplacementFamily:
    def test_endpoints(self, rng):
        gen = G.DiversityWeighted(0.5)
        fam = T.displacement_family(gen)
        th = rng.normal(size=2)
        # t = 0: equal-weighted portfolio, identity map
        assert np.allclose(fam.dual_map_at(0.0, th), th, atol=1e-14)
        p = rng.dirichlet(np.ones(3))
        assert np.allclose(fam.portfolio_at(0.0, p), 1 / 3, atol=1e-15)
        # t = 1: recovers the base generator
        assert np.allclose(fam.portfolio_at(1.0, p), gen.portfolio(p), atol=1e-15)
        assert np.allclose(
            fam.dual_map_at(1.0, th), G.dual_coord(gen, th).phi, atol=1e-14
        )

    def test_blend_equals_generated_portfolio(self, rng):
        for name, gen in builtin_zoo(3).items():
            fam = T.displacement_family(gen)
            p = rng.dirichlet(np.ones(3))
            for t in np.linspace(0.0, 1.0, 11):
                blend = fam.portfolio_at(t, p)
                generated = fam.generator_at(t).portfolio(p)
                assert np.max(np.abs(blend - generated)) < 1e-10, (name, t)

    def test_intermediate_maps_cyclically_monotone(self, rng):
        gen = G.DiversityWeighted(0.5)
        fam = T.displacement_family(gen)
        for t in (0.25, 0.5, 0.75):
            thetas = rng.normal(size=(6, 2))
            pairs = [(th, fam.dual_map_at(t, th)) for th in thetas]
            assert is_c_cyclical_monotone(CouplingSample(pairs))

    @pytest.mark.parametrize("kind", ["displacement", "market"])
    def test_trajectory_rows_are_the_maps_at_each_time(self, rng, kind):
        # one blended array for all times gives, row for row, the bits of
        # the one-time map
        for name, gen in builtin_zoo(4).items():
            fam = T.InterpolationFamily(base=gen, kind=kind)
            th = rng.normal(size=3)
            traj = fam.trajectory(th, grid=33)
            for t, row in zip(traj.times, traj.points):
                assert np.array_equal(row, fam.dual_map_at(t, th)), (name, t)

    def test_trajectory_traces_dual_geodesic(self, rng):
        gen = G.DiversityWeighted(0.5)
        fam = T.displacement_family(gen)
        th = rng.normal(size=2)
        traj = fam.trajectory(th, grid=65)
        from lgeo.divergence import inverse_dual_coord

        q_pt = from_primal(inverse_dual_coord(gen, th))
        p_pt = from_primal(inverse_dual_coord(gen, fam.dual_map_at(1.0, th)))
        ref = gd.dual_geodesic(gen, q_pt, p_pt)
        assert polyline_hausdorff(traj.euclidean_trace(), ref.euclidean_trace()) < 1e-6

    def test_half_time_diversity_weighted_postconditions(self, rng):
        # the spec's worked intermediate case: all three properties at t=1/2
        gen = G.DiversityWeighted(0.5)
        fam = T.displacement_family(gen)
        t = 0.5
        p = rng.dirichlet(np.ones(3))
        assert np.max(np.abs(fam.portfolio_at(t, p) - fam.generator_at(t).portfolio(p))) < 1e-10
        thetas = rng.normal(size=(5, 2))
        pairs = [(th, fam.dual_map_at(t, th)) for th in thetas]
        assert is_c_cyclical_monotone(CouplingSample(pairs))
        th = thetas[0]
        traj = fam.trajectory(th, grid=65)
        a = from_primal_many((-th)[None])[0]
        b = from_primal_many((-fam.dual_map_at(1.0, th))[None])[0]
        assert point_segment_distance(traj.euclidean_trace(), a, b).max() < 1e-6


@pytest.mark.parametrize("kind", ["displacement", "market"])
@pytest.mark.parametrize("t", [-0.1, 1.5, np.nan, -np.inf])
def test_interpolation_parameter_outside_unit_interval_rejected(rng, kind, t):
    # portfolio_at and dual_map_at extrapolated such t, or returned NaN
    fam = T.InterpolationFamily(G.DiversityWeighted(0.5), kind)
    th, p = rng.normal(size=2), rng.dirichlet(np.ones(3))
    for call in (lambda: fam.generator_at(t), lambda: fam.portfolio_at(t, p),
                 lambda: fam.dual_map_at(t, th), lambda: fam.portfolio_at([0.5, t], p)):
        with pytest.raises(ValueError, match="must lie in"):
            call()
    with pytest.raises(ValueError):
        fam.trajectory(th, grid=[0.0, 0.5, t])


class TestMarketInterpolation:
    def test_t1_is_market(self, rng):
        gen = G.DiversityWeighted(0.5)
        fam = T.market_interpolation(gen)
        th = rng.normal(size=2)
        assert np.allclose(fam.dual_map_at(1.0, th), 0.0, atol=1e-13)
        p = rng.dirichlet(np.ones(3))
        assert np.allclose(fam.portfolio_at(1.0, p), p, atol=1e-15)

    def test_t0_is_base(self, rng):
        gen = G.DiversityWeighted(0.5)
        fam = T.market_interpolation(gen)
        p = rng.dirichlet(np.ones(3))
        assert np.allclose(fam.portfolio_at(0.0, p), gen.portfolio(p), atol=1e-15)

    def test_trajectory_collinear_toward_origin(self, rng):
        gen = G.DiversityWeighted(0.5)
        fam = T.market_interpolation(gen)
        th = rng.normal(size=2)
        traj = fam.trajectory(th, grid=33)
        a = from_primal_many((-fam.dual_map_at(0.0, th))[None])[0]
        b = np.full(3, 1 / 3)  # dual coordinate 0 in Euclidean form
        assert point_segment_distance(traj.euclidean_trace(), a, b).max() < 1e-10

    def test_scaled_generator_value(self, rng):
        gen = G.DiversityWeighted(0.5)
        fam = T.market_interpolation(gen)
        p = rng.dirichlet(np.ones(3))
        for t in (0.2, 0.7):
            assert fam.generator_at(t).log_gen(p) == pytest.approx(
                (1 - t) * gen.log_gen(p), rel=1e-14
            )


class TestGaussianExample:
    def test_symmetric_half_case(self):
        rep = T.gaussian_example_check([0.0], [0.0], [1.0], 0.5, sample_size=100_000)
        assert rep.map_scale == 0.5
        assert rep.affine_error < 1e-12
        # variance of the pushforward of N(0,1) under theta/2 is 1/4
        assert rep.target_var[0] == pytest.approx(0.25)
        assert rep.sample_var[0] == pytest.approx(0.25, rel=0.05)
        assert rep.passed

    def test_general_case_passes(self):
        rep = T.gaussian_example_check(
            [0.5, -1.0], [0.2, 0.4], [1.0, 2.0], 0.3, sample_size=100_000
        )
        assert rep.passed
        assert rep.cyclical_monotone

    def test_weights_relation_exact(self):
        a, b, lam = np.array([0.5, -1.0]), np.array([0.2, 0.4]), 0.3
        w = G.weights_from_gaussian(a, b, lam)
        assert np.allclose((1 - lam) * a - np.log(w[:-1] / w[-1]), b, atol=1e-15)

    def test_seed_reproducibility_and_chunk_invariance(self):
        r1 = T.gaussian_example_check([0.0], [0.0], [1.0], 0.5, sample_size=20_000, seed=7)
        r2 = T.gaussian_example_check([0.0], [0.0], [1.0], 0.5, sample_size=20_000, seed=7)
        assert np.array_equal(r1.sample_mean, r2.sample_mean)
        r3 = T.gaussian_example_check([0.0], [0.0], [1.0], 0.5, sample_size=20_000, seed=8)
        assert not np.array_equal(r1.sample_mean, r3.sample_mean)

    def test_csv_emission(self, tmp_path):
        rep = T.gaussian_example_check([0.0], [0.0], [1.0], 0.5, sample_size=5_000)
        out = tmp_path / "gauss.csv"
        rep.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("marginal,map_scale")
        assert len(lines) == 2

    def test_csv_bytes_match_per_row_formatting(self, tmp_path):
        rep = T.gaussian_example_check([0.5, -1.0, 0.0], [0.2, 0.4, -0.3], [1.0, 2.0, 0.5], 0.3,
                                       sample_size=5_000)
        out = tmp_path / "gauss.csv"
        rep.to_csv(out)
        expected = ["marginal,map_scale,map_shift,sample_mean,target_mean,mean_tolerance,"
                    "sample_var,target_var"]
        for i in range(3):
            expected.append(",".join([str(i + 1)] + [f"{v:.17g}" for v in (
                rep.map_scale, rep.map_shift[i], rep.sample_mean[i], rep.target_mean[i],
                rep.mean_tolerance[i], rep.sample_var[i], rep.target_var[i])]))
        assert out.read_bytes() == "".join(line + "\r\n" for line in expected).encode()

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            T.gaussian_example_check([0.0], [0.0], [1.0], 1.5)
        with pytest.raises(ValueError):
            T.gaussian_example_check([0.0], [0.0], [-1.0], 0.5)
        for size in (1, 0):
            with pytest.raises(ValueError, match="sample_size"):
                T.gaussian_example_check([0.0], [0.0], [1.0], 0.5, sample_size=size)

    @pytest.mark.parametrize("a, b, sigma, message", [
        ([0.3, -0.2], [0.1, 0.4], [0.8, 1.2, 1.0],
         r"^dimension mismatch: a, b and sigma of sizes \[2, 2, 3\]$"),
        ([0.3, -0.2], [0.1, 0.4], [0.8, np.inf], "^sigma must have finite entries$"),
        ([np.nan, -0.2], [0.1, 0.4], [0.8, 1.2], "^a must have finite entries$"),
        ([0.3, -0.2], [0.1, -np.inf], [0.8, 1.2], "^b must have finite entries$"),
    ], ids=["sigma-length", "sigma-inf", "a-nan", "b-inf"])
    def test_names_the_bad_argument(self, a, b, sigma, message):
        # these used to give numpy's broadcast message, a RuntimeWarning and
        # then a portfolio-boundary error, and bad "generator weights"; the
        # suite turns a warning into a failure
        with pytest.raises(ValueError, match=message):
            T.gaussian_example_check(a, b, sigma, 0.5, sample_size=100)


class TestBruteForce:
    """``optimal_assignment``, also against the branch-and-bound oracle."""

    def test_single_point(self):
        perm, cost = optimal_assignment(np.zeros((1, 2)), np.ones((1, 2)))
        assert list(perm) == [0]
        assert cost == pytest.approx(psi(-np.ones(2)))

    def test_dual_graph_coupling_is_optimal(self, rng):
        gen = G.DiversityWeighted(0.5)
        for _ in range(10):
            thetas = rng.normal(size=(5, 2))
            phis = np.array([G.dual_coord(gen, th).phi for th in thetas])
            perm, cost = optimal_assignment(thetas, phis)
            diag = T.coupling_cost(CouplingSample(list(zip(thetas, phis))))
            assert diag <= cost + 1e-9

    def test_shuffled_coupling_costs_at_least_optimum(self, rng):
        thetas = rng.normal(size=(5, 2))
        phis = rng.normal(size=(5, 2))
        perm, cost = optimal_assignment(thetas, phis)
        for _ in range(10):
            shuffle = rng.permutation(5)
            shuffled = T.coupling_cost(
                CouplingSample([(thetas[i], phis[shuffle[i]]) for i in range(5)])
            )
            assert shuffled >= cost - 1e-12

    def test_cost_matches_branch_and_bound(self, rng):
        # six instances per size: the oracle is factorial in m
        for k in range(48):
            m = 1 + k % 8
            thetas = rng.normal(size=(m, 2)) * 1.5
            phis = rng.normal(size=(m, 2)) * 1.5
            perm, cost = optimal_assignment(thetas, phis)
            _, best = brute_force_optimal(thetas, phis)
            assert abs(cost - best) <= 1e-12, k
            assert sorted(perm) == list(range(m))
            assert T.coupling_cost(
                CouplingSample([(thetas[i], phis[perm[i]]) for i in range(m)])
            ) == pytest.approx(cost, abs=1e-12)

    def test_unequal_supports_rejected(self):
        with pytest.raises(ValueError):
            optimal_assignment(np.zeros((3, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("P, Q, message", [
        ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]],
         r"^dimension mismatch: coordinates of shapes \[\(2, 2\), \(2, 3\)\]$"),
        ([[0.0, np.nan], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
         "^coordinate rows must have finite entries$"),
        ([[0.0, 1.0], [1.0, 0.0]], [[0.0, np.inf], [1.0, 0.0]],
         "^coordinate rows must have finite entries$"),
    ], ids=["ragged", "nan", "inf"])
    def test_supports_are_finite_rows_of_one_width(self, P, Q, message):
        # these used to give numpy's broadcast message and scipy's "matrix
        # contains invalid numeric entries"
        with pytest.raises(ValueError, match=message):
            optimal_assignment(P, Q)
