import numpy as np
import pytest

from lgeo import generators as G
from lgeo import geometry as geo
from lgeo.divergence import l_divergence, l_divergence_dual, l_divergence_primal
from lgeo.generators import dual_coord
from lgeo.simplex import from_primal, to_primal

from conftest import builtin_zoo, dirichlet_points
from _oracles import (
    christoffel_lowered,
    dual_connection_in_primal_coords,
    fd_jacobian,
    fd_lowered_dual_connection,
    fd_lowered_primal_connection,
    fd_metric_from_divergence,
    fd_second_along,
    pullback_metric,
    rc_curvature_assembled,
    riem_gradient_dual_ratio_form,
    riem_gradient_dual_tilt_form,
    riem_gradient_primal_ratio_form,
    riem_gradient_primal_tilt_form,
)


def T_primal(gen):
    return lambda a, b: l_divergence_primal(gen, a, b).value


def T_dual(gen):
    return lambda a, b: l_divergence_dual(gen, a, b).value


class TestPiQuantities:
    def test_collapses_to_portfolio_on_diagonal(self, rng):
        gen = G.DiversityWeighted(0.5)
        th = rng.normal(size=2)
        Pi = geo.pi_quantities(gen, th, th).values
        pi = gen.portfolio(from_primal(th).p)
        assert np.allclose(Pi, pi, atol=1e-14)

    def test_sums_to_one(self, rng):
        for name, gen in builtin_zoo(4).items():
            Pi = geo.pi_quantities(gen, rng.normal(size=3), rng.normal(size=3)).values
            assert Pi.sum() == pytest.approx(1.0, abs=1e-12), name
            assert np.all(Pi > 0)

    def test_derivative_identities_primal(self, rng):
        # d Pi_i / d theta_j = Pi_i (delta_ij - Pi_j); the theta' derivative
        # picks up relative portfolio-derivative corrections
        gen = G.DiversityWeighted(0.5)
        th = rng.normal(size=2) * 0.5
        th2 = rng.normal(size=2) * 0.5
        Pi = geo.pi_quantities(gen, th, th2).values
        J1 = fd_jacobian(lambda x: geo.pi_quantities(gen, x, th2).values, th)
        expected1 = Pi[:, None] * (np.eye(3)[:, :2] - Pi[None, :2])
        assert np.max(np.abs(J1 - expected1)) < 1e-6

        J2 = fd_jacobian(lambda x: geo.pi_quantities(gen, th, x).values, th2)
        pi2 = gen.portfolio(from_primal(th2).p)
        dpi2 = gen.dpi_dtheta(th2)
        rel = dpi2 / pi2[:, None]
        correction = Pi[:, None] * (rel - (Pi @ rel)[None, :])
        expected2 = -expected1 + correction
        assert np.max(np.abs(J2 - expected2)) < 1e-6

    def test_derivative_identities_dual(self, rng):
        gen = G.DiversityWeighted(0.5)
        th = rng.normal(size=2) * 0.5
        ph = dual_coord(gen, th).phi
        ph2 = ph + rng.normal(size=2) * 0.3
        Pi = geo.pi_quantities_dual(gen, ph, ph2).values
        # second-argument derivative has the clean product form
        J2 = fd_jacobian(lambda x: geo.pi_quantities_dual(gen, ph, x).values, ph2)
        expected2 = -Pi[:, None] * (np.eye(3)[:, :2] - Pi[None, :2])
        assert np.max(np.abs(J2 - expected2)) < 1e-6


class TestEuclideanMetric:
    def test_zero_vector(self, rng):
        gen = G.DiversityWeighted(0.5)
        p = rng.dirichlet(np.ones(3))
        u = np.array([0.2, -0.5, 0.3])
        assert geo.metric_euclidean(gen, p, u, np.zeros(3)) == 0.0

    def test_rejects_non_tangent(self, rng):
        gen = G.equal_weighted(3)
        p = rng.dirichlet(np.ones(3))
        with pytest.raises(ValueError):
            geo.metric_euclidean(gen, p, np.array([1.0, 0.0, 0.0]), np.zeros(3))

    def test_equal_weighted_two_asset_value(self):
        # analytic: at p = (1/2, 1/2), u = (1, -1), the squared length is 4
        gen = G.equal_weighted(2)
        u = np.array([1.0, -1.0])
        val = geo.metric_euclidean(gen, np.array([0.5, 0.5]), u, u)
        assert val == pytest.approx(4.0, rel=1e-12)

    def test_matches_second_derivative_of_divergence(self, rng):
        for n in (3, 10):
            gens = builtin_zoo(n)
            # phi alone: the metric from the finite-difference dpi_dtheta
            gens["custom"] = G.CustomGenerator(lambda p: 2.0 * np.log(np.sum(np.sqrt(p))))
            for name, gen in gens.items():
                p = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
                v = rng.normal(size=n)
                v -= v.mean()
                v *= 0.1
                quad = geo.metric_euclidean(gen, p, v, v)
                oracle = fd_second_along(lambda t: l_divergence(gen, p + t * v, p).value)
                assert quad == pytest.approx(oracle, rel=1e-6), (n, name)

    @pytest.mark.parametrize("u, v, message", [
        # a 2-entry pair at a 3-entry point used to broadcast w[:-1] / p[:-1]
        # and return a number (0.0939 for this pair)
        ([0.1, -0.1], [0.2, -0.2], "tangent vector u has 2 entries, not 3"),
        ([0.1, -0.1, 0.0], [0.2, -0.2], "tangent vector v has 2 entries, not 3"),
        # abs(nan) > 1e-10 is False, so a NaN entry used to return nan
        ([np.nan, -0.1, 0.1], [0.2, -0.2, 0.0], "tangent vector u must have finite entries"),
        ([0.1, -0.1, 0.0], [np.inf, -0.2, 0.0], "tangent vector v must have finite entries"),
        ([[0.1, -0.1, 0.0]], [0.2, -0.2, 0.0], r"tangent vector u must be a 1-d vector"),
    ], ids=["short-u", "short-v", "nan", "inf", "2d"])
    def test_rejects_tangent_vectors_of_the_wrong_shape_or_entries(self, u, v, message):
        gen = G.DiversityWeighted(0.5)
        with pytest.raises(ValueError, match=message):
            geo.metric_euclidean(gen, np.array([0.2, 0.3, 0.5]), u, v)

    def test_bilinear_symmetry(self, rng):
        gen = G.DiversityWeighted(0.4)
        p = rng.dirichlet(np.ones(4))
        u, v = rng.normal(size=4), rng.normal(size=4)
        u -= u.mean()
        v -= v.mean()
        assert geo.metric_euclidean(gen, p, u, v) == pytest.approx(
            geo.metric_euclidean(gen, p, v, u), rel=1e-12
        )


class TestCoordinateMetrics:
    def test_constant_weighted_closed_form(self, rng):
        w = np.array([0.5, 0.5])
        g = geo.metric_primal(G.ConstantWeighted(w), rng.normal(size=1))
        assert g.entries[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_primal_matches_fd_oracle(self, rng):
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.6
            closed = geo.metric_primal(gen, th).entries
            oracle = fd_metric_from_divergence(T_primal(gen), th)
            rel = np.max(np.abs(closed - oracle)) / np.max(np.abs(closed))
            assert rel < 1e-5, name

    def test_dual_matches_fd_oracle(self, rng):
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.6
            ph = dual_coord(gen, th).phi
            closed = geo.metric_dual(gen, ph).entries
            oracle = fd_metric_from_divergence(T_dual(gen), ph)
            rel = np.max(np.abs(closed - oracle)) / np.max(np.abs(closed))
            assert rel < 1e-5, name

    def test_sherman_morrison_inverse(self, rng):
        for name, gen in builtin_zoo(4).items():
            th = rng.normal(size=3) * 0.5
            g = geo.metric_primal(gen, th)
            assert np.max(np.abs(g.entries @ g.inv - np.eye(3))) < 1e-8, name
            gd = geo.metric_dual(gen, theta=th)
            assert np.max(np.abs(gd.entries @ gd.inv - np.eye(3))) < 1e-8, name

    def test_same_bilinear_form_across_coordinates(self, rng):
        # J^T g* J = g with J the dual-map Jacobian
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.6
            g = geo.metric_primal(gen, th).entries
            gstar = geo.metric_dual(gen, theta=th).entries
            J = G.jacobian_dual(gen, th)
            assert np.max(np.abs(pullback_metric(J, gstar) - g)) < 1e-6, name

    def test_dual_point_given_by_exactly_one_coordinate(self):
        # a point given by phi or by theta gives the same record, based at
        # its own phi; phi of another point next to theta, or no point, is
        # rejected rather than recorded with the wrong base point
        gen = G.DiversityWeighted(0.5)
        th = np.array([0.3, -0.2])
        ph = dual_coord(gen, th).phi
        other = dual_coord(gen, [1.0, 0.5]).phi
        for build in (geo.metric_dual, geo.christoffel_dual):
            by_phi, by_theta = build(gen, ph), build(gen, theta=th)
            assert np.array_equal(by_phi.base_point, ph), build.__name__
            assert np.allclose(by_theta.base_point, ph, rtol=0, atol=1e-15), build.__name__
            for kwargs in ({"phi": other, "theta": th}, {}):
                with pytest.raises(ValueError, match="exactly one"):
                    build(gen, **kwargs)
        g_phi, g_theta = geo.metric_dual(gen, ph), geo.metric_dual(gen, theta=th)
        assert np.allclose(g_phi.entries, g_theta.entries, rtol=0, atol=1e-14)

    def test_positive_definite_sweep(self, rng):
        for name, gen in builtin_zoo(3).items():
            Theta = rng.normal(size=(100, 2))
            for th in Theta:
                eigs = np.linalg.eigvalsh(geo.metric_primal(gen, th).entries)
                assert eigs.min() > 0, name

    def test_portfolio_derivative_symmetric(self, rng):
        # d pi_i / d theta_j = d pi_j / d theta_i on the first n-1 rows
        for name, gen in builtin_zoo(4).items():
            th = rng.normal(size=3) * 0.7
            dpi = gen.dpi_dtheta(th)[:-1, :]
            assert np.max(np.abs(dpi - dpi.T)) < 1e-6, name


class TestChristoffels:
    def test_two_asset_closed_form(self, rng):
        gen = G.equal_weighted(2)
        th = rng.normal(size=1)
        pi1 = gen.portfolio(from_primal(th).p)[0]
        gamma = geo.christoffel_primal(gen, th).gamma
        assert gamma[0, 0, 0] == pytest.approx(1 - 2 * pi1, rel=1e-12)
        at_bary = geo.christoffel_primal(gen, np.zeros(1)).gamma
        assert abs(at_bary[0, 0, 0]) < 1e-15

    def test_symmetry_in_lower_pair(self, rng):
        for which in ("primal", "dual"):
            for name, gen in builtin_zoo(4).items():
                point = rng.normal(size=3) * 0.5
                t = (
                    geo.christoffel_primal(gen, point)
                    if which == "primal"
                    else geo.christoffel_dual(gen, theta=point)
                )
                assert np.max(np.abs(t.gamma - t.gamma.transpose(1, 0, 2))) < 1e-14, name

    def test_lowered_primal_matches_fd(self, rng):
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.5
            closed = christoffel_lowered(gen, th, "primal")
            oracle = fd_lowered_primal_connection(T_primal(gen), th)
            assert np.max(np.abs(closed - oracle)) < 1e-4, name

    def test_lowered_dual_matches_fd(self, rng):
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.5
            ph = dual_coord(gen, th).phi
            closed = christoffel_lowered(gen, ph, "dual")
            oracle = fd_lowered_dual_connection(T_dual(gen), ph)
            assert np.max(np.abs(closed - oracle)) < 1e-4, name

    def test_raised_closed_form_vs_raised_fd(self, rng):
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.5
            lowered_fd = fd_lowered_primal_connection(T_primal(gen), th)
            ginv = geo.metric_primal(gen, th).inv
            raised_fd = np.einsum("ijm,mk->ijk", lowered_fd, ginv)
            closed = geo.christoffel_primal(gen, th).gamma
            assert np.max(np.abs(raised_fd - closed)) < 1e-4, name

    def test_duality_relation(self, rng):
        # d_k g_ij = Gamma_kij + Gamma*_kji with the dual connection
        # transported into primal coordinates
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.5
            h = 1e-4
            m = 2
            dg = np.empty((m, m, m))
            for k in range(m):
                e = np.zeros(m)
                e[k] = h
                dg[k] = (
                    geo.metric_primal(gen, th + e).entries
                    - geo.metric_primal(gen, th - e).entries
                ) / (2 * h)
            gam = christoffel_lowered(gen, th, "primal")
            gmat = geo.metric_primal(gen, th).entries
            gstar_theta = dual_connection_in_primal_coords(gen, th)
            gams = np.einsum("abc,cj->abj", gstar_theta, gmat)
            resid = dg - (gam + gams.transpose(0, 2, 1))
            assert np.max(np.abs(resid)) < 1e-5, name

    def test_levi_civita_midpoint(self, rng):
        # (Gamma + Gamma*)/2 equals the metric's own Levi-Civita symbols
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.5
            h = 1e-4
            m = 2
            dg = np.empty((m, m, m))
            for k in range(m):
                e = np.zeros(m)
                e[k] = h
                dg[k] = (
                    geo.metric_primal(gen, th + e).entries
                    - geo.metric_primal(gen, th - e).entries
                ) / (2 * h)
            gam = christoffel_lowered(gen, th, "primal")
            gmat = geo.metric_primal(gen, th).entries
            gstar_theta = dual_connection_in_primal_coords(gen, th)
            gams = np.einsum("abc,cj->abj", gstar_theta, gmat)
            midpoint = 0.5 * (gam + gams)
            # standard formula: LC_ijk = (d_i g_jk + d_j g_ik - d_k g_ij) / 2
            lc = 0.5 * (dg + dg.transpose(1, 0, 2) - dg.transpose(2, 1, 0))
            # dg[k, i, j] = d_k g_ij; build lc[i, j, k] accordingly
            lc = 0.5 * (
                np.einsum("ijk->ijk", dg)  # d_i g_jk
                + np.einsum("jik->ijk", dg)  # d_j g_ik
                - np.einsum("kij->ijk", dg)  # d_k g_ij
            )
            assert np.max(np.abs(midpoint - lc)) < 1e-4, name


class TestCurvature:
    def test_two_asset_curvature_vanishes(self, rng):
        gen = G.equal_weighted(2)
        R = geo.rc_curvature(gen, rng.normal(size=1), "primal")
        assert np.max(np.abs(R)) == 0.0

    def test_nonzero_for_three_assets(self, rng):
        for name, gen in builtin_zoo(3).items():
            R = geo.rc_curvature(gen, rng.normal(size=2), "primal")
            assert np.max(np.abs(R)) > 1e-6, name

    def test_closed_form_vs_assembled(self, rng):
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.5
            closed = geo.rc_curvature(gen, th, "primal")
            assembled = rc_curvature_assembled(gen, th, "primal")
            assert np.max(np.abs(closed - assembled)) < 1e-4, name
            ph = dual_coord(gen, th).phi
            closed_d = geo.rc_curvature(gen, ph, "dual")
            assembled_d = rc_curvature_assembled(gen, ph, "dual")
            assert np.max(np.abs(closed_d - assembled_d)) < 1e-4, name

    def test_sectional_curvature_minus_one(self, rng):
        for n in (3, 4):
            for name, gen in builtin_zoo(n).items():
                for which in ("primal", "dual"):
                    point = rng.normal(size=n - 1) * 0.5
                    if which == "dual":
                        point = dual_coord(gen, point).phi
                    u, v = rng.normal(size=n - 1), rng.normal(size=n - 1)
                    k = geo.sectional_curvature(gen, point, u, v, which)
                    assert k == pytest.approx(-1.0, abs=1e-10), (name, which)

    def test_sectional_invariant_under_basis_change(self, rng):
        gen = G.DiversityWeighted(0.5)
        th = rng.normal(size=3) * 0.4
        u, v = rng.normal(size=3), rng.normal(size=3)
        k1 = geo.sectional_curvature(gen, th, u, v, "primal")
        k2 = geo.sectional_curvature(gen, th, 2.0 * u + 0.3 * v, -0.7 * v, "primal")
        assert k1 == pytest.approx(k2, rel=1e-10)

    def test_sectional_curvature_builds_one_metric(self, rng, monkeypatch):
        # the curvature tensor comes from the metric that the plane's inner
        # products use, so one call builds one metric, and the value is
        # bitwise that of the tensor from rc_curvature with its own metric
        metric_for, built = geo._metric_for, []

        def counted(gen, point, which):
            built.append(which)
            return metric_for(gen, point, which)

        for name, gen in builtin_zoo(3).items():
            for which in ("primal", "dual"):
                point = rng.normal(size=2) * 0.5
                if which == "dual":
                    point = dual_coord(gen, point).phi
                u, v = rng.normal(size=2), rng.normal(size=2)
                g = geo._metric_for(gen, point, which)
                Ruvv = np.einsum("ijkl,i,j,k->l", geo.rc_curvature(gen, point, which), u, v, v)
                den = g.inner(u, u) * g.inner(v, v) - g.inner(u, v) ** 2
                ref = float(Ruvv @ g.entries @ u) / den
                monkeypatch.setattr(geo, "_metric_for", counted)
                built.clear()
                assert geo.sectional_curvature(gen, point, u, v, which) == ref, (name, which)
                assert built == [which], (name, which)
                monkeypatch.setattr(geo, "_metric_for", metric_for)

    def test_degenerate_plane_rejected(self, rng):
        gen = G.equal_weighted(4)
        u = rng.normal(size=3)
        with pytest.raises(ValueError):
            geo.sectional_curvature(gen, np.zeros(3), u, 2 * u, "primal")

    @pytest.mark.parametrize("which", ["primal", "dual"])
    @pytest.mark.parametrize("u, v, message", [
        ([np.nan, 0.2], [0.3, -0.1], "tangent vector u must have finite entries"),
        ([0.1, 0.2], [0.3, np.inf], "tangent vector v must have finite entries"),
        ([0.1, 0.2, 0.3], [0.3, -0.1], "tangent vector u has 3 entries, not 2"),
        ([0.1, 0.2], [0.3], "tangent vector v has 1 entries, not 2"),
    ], ids=["nan", "inf", "long-u", "short-v"])
    def test_sectional_curvature_rejects_bad_tangent_vectors(self, which, u, v, message):
        # a NaN entry used to return nan
        with pytest.raises(ValueError, match=message):
            geo.sectional_curvature(G.DiversityWeighted(0.5), np.zeros(2), u, v, which)

    def test_einstein_condition(self, rng):
        for name, gen in builtin_zoo(4).items():
            th = rng.normal(size=3) * 0.4
            ric = np.einsum("ijki->jk", rc_curvature_assembled(gen, th, "primal"))
            gmat = geo.metric_primal(gen, th).entries
            assert np.max(np.abs(ric + (4 - 2) * gmat)) < 1e-6, name
            assert np.max(np.abs(geo.ricci(gen, th, "primal") + (4 - 2) * gmat)) < 1e-6, name


class TestRiemannianGradients:
    def test_zero_at_target(self, rng):
        gen = G.DiversityWeighted(0.5)
        q = rng.dirichlet(np.ones(3))
        assert np.allclose(geo.riem_gradient_primal(gen, q, q), 0.0, atol=1e-14)
        assert np.allclose(geo.riem_gradient_dual(gen, q, q), 0.0, atol=1e-14)

    def test_two_closed_forms_agree(self, rng):
        for name, gen in builtin_zoo(3).items():
            q = rng.dirichlet(np.ones(3))
            r = rng.dirichlet(np.ones(3))
            a = geo.riem_gradient_primal(gen, r, q)
            b = riem_gradient_primal_ratio_form(gen, r, q)
            assert np.max(np.abs(a - b)) < 1e-12, name
            c = geo.riem_gradient_dual(gen, r, q)
            d = riem_gradient_dual_ratio_form(gen, r, q)
            assert np.max(np.abs(c - d)) < 1e-12, name

    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_ratio_tilts_match_the_coordinate_tilts(self, rng, n):
        # X / (pi . X) from the points against exp(delta) / Z from the primal
        # and dual coordinates, to 1e-13 of the gradient's largest entry
        for name, gen in builtin_zoo(n).items():
            for _ in range(5):
                a, b = rng.dirichlet(np.ones(n), 2)
                for new, old in ((geo.riem_gradient_primal, riem_gradient_primal_tilt_form),
                                 (geo.riem_gradient_dual, riem_gradient_dual_tilt_form)):
                    want = old(gen, a, b)
                    got = new(gen, a, b)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name

    def test_matches_metric_solve_of_fd_partials(self, rng):
        from _oracles import fd_gradient
        from lgeo.divergence import l_divergence_primal, l_divergence_dual

        for name, gen in builtin_zoo(3).items():
            q = rng.dirichlet(np.ones(3))
            r = rng.dirichlet(np.ones(3))
            th_q = to_primal(q).theta
            th_r = to_primal(r).theta
            # primal: grad = g^{-1} (partial derivatives of T(r | .))
            partials = fd_gradient(
                lambda x: l_divergence_primal(gen, th_r, x).value, th_q
            )
            expected = geo.metric_primal(gen, th_q).inv @ partials
            assert np.max(np.abs(expected - geo.riem_gradient_primal(gen, r, q))) < 1e-5, name
            # dual: grad of T(. | p) in dual coordinates
            ph_q = dual_coord(gen, th_q).phi
            ph_r = dual_coord(gen, th_r).phi
            partials_d = fd_gradient(
                lambda x: l_divergence_dual(gen, x, ph_r).value, ph_q
            )
            expected_d = geo.metric_dual(gen, theta=th_q).inv @ partials_d
            assert np.max(np.abs(expected_d - geo.riem_gradient_dual(gen, r, q))) < 1e-5, name
