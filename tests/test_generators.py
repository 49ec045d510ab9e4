import json

import numpy as np
import pytest

from lgeo import generators as G
from lgeo.divergence import f_value
from lgeo.simplex import from_primal, from_primal_many, to_primal

from conftest import builtin_zoo, dirichlet_points
from _oracles import fd_gradient, fd_jacobian


class TestPortfolioMap:
    def test_constant_weighted_is_constant(self, rng):
        w = np.array([0.5, 0.3, 0.2])
        gen = G.constant_weighted(w)
        for p in dirichlet_points(rng, 3, 20):
            assert np.allclose(gen.portfolio(p), w, atol=1e-15)

    def test_market_portfolio_is_identity(self, rng):
        gen = G.ZeroGenerator()
        for p in dirichlet_points(rng, 4, 10):
            assert np.allclose(gen.portfolio(p), p, atol=1e-15)

    def test_diversity_weighted_hand_value(self):
        gen = G.diversity_weighted(0.5)
        w = gen.portfolio(np.array([0.64, 0.16, 0.04, 0.16]))
        assert np.allclose(w, np.array([0.8, 0.4, 0.2, 0.4]) / 1.8, atol=1e-15)

    def test_diversity_weighted_second_hand_value(self):
        gen = G.diversity_weighted(0.5)
        w = gen.portfolio(np.array([0.81, 0.09, 0.09, 0.01]))
        assert np.allclose(w, np.array([0.9, 0.3, 0.3, 0.1]) / 1.6, atol=1e-15)

    def test_diversity_uniform_fixed_point(self):
        gen = G.diversity_weighted(0.3)
        w = gen.portfolio(np.full(5, 0.2))
        assert np.allclose(w, 0.2, atol=1e-15)

    def test_portfolio_matches_gradient_formula(self, rng):
        # pi_i = p_i (1 + grad . (e_i - p)) for every family, via FD gradients
        for name, gen in builtin_zoo(3).items():
            p = rng.dirichlet(np.ones(3))
            g = fd_gradient(lambda x: gen.log_gen(x / x.sum()), p)
            direct = p * (1.0 + g - g @ p)
            assert np.allclose(gen.portfolio(p), direct, atol=1e-7), name

    def test_portfolio_wrapper_validates(self):
        gen = G.diversity_weighted(0.5)
        w = G.portfolio(gen, np.array([0.3, 0.3, 0.4]))
        assert isinstance(w, G.Portfolio)
        assert w.interior
        assert abs(w.weights.sum() - 1.0) < 1e-15


class TestGeneratorValues:
    def test_cross_entropy_value(self):
        gen = G.constant_weighted([0.5, 0.5])
        assert gen.log_gen(np.array([0.25, 0.75])) == pytest.approx(
            0.5 * np.log(3 / 16), rel=1e-15
        )

    def test_equal_weight_at_barycenter(self):
        gen = G.equal_weighted(3)
        assert gen.log_gen(np.full(3, 1 / 3)) == pytest.approx(-np.log(3), rel=1e-15)

    def test_constant_weighted_potential_affine(self, rng):
        # f(theta) = sum w_i theta_i for the cross-entropy generator
        w = np.array([0.5, 0.3, 0.2])
        gen = G.constant_weighted(w)
        for _ in range(10):
            th = rng.normal(size=2)
            assert f_value(gen, th) == pytest.approx(w[:2] @ th, abs=1e-12)

    def test_gdw_reduces_to_dw_at_unit_weights(self, rng):
        gdw = G.generalized_diversity_weighted(np.ones(3), 0.5)
        dw = G.diversity_weighted(0.5)
        for p in dirichlet_points(rng, 3, 10):
            assert gdw.log_gen(p) == pytest.approx(dw.log_gen(p), rel=1e-14)
            assert np.allclose(gdw.portfolio(p), dw.portfolio(p), atol=1e-15)

    def test_gdw_portfolio_sums_to_one(self, rng):
        gen = G.generalized_diversity_weighted([0.3, 2.0, 1.1], 0.7)
        for p in dirichlet_points(rng, 3, 50):
            assert gen.portfolio(p).sum() == pytest.approx(1.0, abs=1e-12)

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            G.diversity_weighted(1.0)
        with pytest.raises(ValueError):
            G.diversity_weighted(0.0)
        with pytest.raises(ValueError):
            G.generalized_diversity_weighted([1.0, -1.0], 0.5)


class TestConvexCombination:
    def test_single_component_identity(self, rng):
        base = G.diversity_weighted(0.5)
        combo = G.convex_combination([base], [1.0])
        p = rng.dirichlet(np.ones(3))
        assert combo.log_gen(p) == pytest.approx(base.log_gen(p), rel=1e-15)
        assert np.allclose(combo.portfolio(p), base.portfolio(p))

    def test_blend_of_constants_is_constant(self, rng):
        a = G.constant_weighted([0.6, 0.2, 0.2])
        b = G.constant_weighted([0.2, 0.5, 0.3])
        combo = G.convex_combination([a, b], [0.25, 0.75])
        blended = 0.25 * np.array([0.6, 0.2, 0.2]) + 0.75 * np.array([0.2, 0.5, 0.3])
        for p in dirichlet_points(rng, 3, 100):
            assert np.allclose(combo.portfolio(p), blended, atol=1e-15)

    def test_rejects_empty_and_bad_coeffs(self):
        with pytest.raises(ValueError):
            G.convex_combination([], [])
        with pytest.raises(ValueError):
            G.convex_combination([G.equal_weighted(2)], [0.5])


class TestDuality:
    def test_constant_weighted_translation(self, rng):
        w = np.array([0.5, 0.3, 0.2])
        gen = G.constant_weighted(w)
        shift = np.log(w[:2] / w[2])
        for _ in range(5):
            th = rng.normal(size=2)
            phi = G.dual_coord(gen, th).phi
            assert np.allclose(phi, th - shift, atol=1e-14)

    def test_diversity_weighted_scaling(self, rng):
        lam = 0.3
        gen = G.diversity_weighted(lam)
        for _ in range(5):
            th = rng.normal(size=3)
            phi = G.dual_coord(gen, th).phi
            assert np.allclose(phi, (1 - lam) * th, atol=1e-13)

    def test_equal_weighted_identity(self, rng):
        gen = G.equal_weighted(4)
        th = rng.normal(size=3)
        assert np.allclose(G.dual_coord(gen, th).phi, th, atol=1e-14)

    def test_dual_coord_tagged_with_generator(self):
        gen = G.equal_weighted(3)
        assert G.dual_coord(gen, [0.1, 0.2]).generator is gen

    def test_boundary_portfolio_rejected(self):
        # phi(p) = log p_1 pushes all weight onto the first asset
        gen = G.CustomGenerator(lambda p: np.log(p[0]), name="degenerate")
        with pytest.raises(G.NonRegularError):
            G.dual_coord(gen, np.zeros(2))

    def test_dual_euclidean_reciprocal_for_equal(self, rng):
        gen = G.equal_weighted(3)
        p = rng.dirichlet(np.ones(3))
        star = G.dual_euclidean(gen, p).p
        recip = (1 / p) / (1 / p).sum()
        assert np.allclose(star, recip, atol=1e-14)

    def test_dual_euclidean_fixes_barycenter(self):
        gen = G.equal_weighted(3)
        star = G.dual_euclidean(gen, np.full(3, 1 / 3)).p
        assert np.allclose(star, 1 / 3, atol=1e-14)

    def test_dual_euclidean_is_composition(self, rng):
        gen = G.diversity_weighted(0.4)
        p = rng.dirichlet(np.ones(4))
        phi = G.dual_coord(gen, to_primal(p).theta).phi
        assert np.allclose(G.dual_euclidean(gen, p).p, from_primal(-phi).p, atol=1e-15)

    def test_dual_coord_injective_on_grid(self):
        gen = G.diversity_weighted(0.5)
        grid = np.array([[a, b] for a in np.linspace(-2, 2, 9) for b in np.linspace(-2, 2, 9)])
        images = np.array([G.dual_coord(gen, th).phi for th in grid])
        # pairwise distinct
        d = np.linalg.norm(images[:, None, :] - images[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1e-6


class TestJacobianDual:
    def test_constant_weighted_identity(self, rng):
        gen = G.constant_weighted([0.4, 0.35, 0.25])
        J = G.jacobian_dual(gen, rng.normal(size=2))
        assert np.allclose(J, np.eye(2), atol=1e-9)

    def test_diversity_scaling(self, rng):
        lam = 0.45
        gen = G.diversity_weighted(lam)
        J = G.jacobian_dual(gen, rng.normal(size=2))
        assert np.allclose(J, (1 - lam) * np.eye(2), atol=1e-8)

    def test_product_with_inverse(self, rng):
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.5
            J = G.jacobian_dual(gen, th)
            assert np.max(np.abs(J @ np.linalg.inv(J) - np.eye(2))) < 1e-6, name

    def test_positive_determinant(self, rng):
        for name, gen in builtin_zoo(4).items():
            th = rng.normal(size=3) * 0.5
            assert np.linalg.det(G.jacobian_dual(gen, th)) > 0, name

    def test_well_conditioned_at_high_dimension(self):
        # J = (1 - lam) I at every n; det J = 0.5^49 at n = 50 is no sign of
        # singularity
        J = G.jacobian_dual(G.diversity_weighted(0.5), np.zeros(49))
        assert np.allclose(J, 0.5 * np.eye(49), atol=1e-9)

    def test_singular_jacobians_raise(self):
        # the market generator's dual map is constant (J = 0); with
        # phi(p) = (log p_1 + log(p_2 + p_3)) / 2 the second dual coordinate
        # is zero everywhere (J has rank 1)
        half = lambda p: 0.5 * np.log(p[0]) + 0.5 * np.log(p[1] + p[2])
        grad = lambda p: np.array([0.5 / p[0], 0.5 / (p[1] + p[2]), 0.5 / (p[1] + p[2])])
        for gen in (G.ZeroGenerator(), G.CustomGenerator(half, grad=grad, name="rank1")):
            with pytest.raises(G.NonRegularError, match="singular dual Jacobian"):
                G.jacobian_dual(gen, np.array([0.3, -0.2]))

    def test_matches_fd_of_dual_map(self, rng):
        gen = G.convex_combination(
            [G.constant_weighted([0.4, 0.3, 0.3]), G.diversity_weighted(0.6)], [0.5, 0.5]
        )
        th = rng.normal(size=2) * 0.3
        J = G.jacobian_dual(gen, th)
        J_fd = fd_jacobian(lambda x: G.dual_coord(gen, x).phi, th)
        assert np.max(np.abs(J - J_fd)) < 1e-6


class TestWeightsFromGaussian:
    def test_zero_case(self):
        w = G.weights_from_gaussian([0.0, 0.0], [0.0, 0.0], 0.5)
        assert np.allclose(w, 1.0, atol=1e-15)

    def test_hand_case(self):
        w = G.weights_from_gaussian([2.0, 0.0], [1.0, 0.0], 0.5)
        assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-15)

    def test_defining_relation_exact(self, rng):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        lam = 0.37
        w = G.weights_from_gaussian(a, b, lam)
        assert w[-1] == 1.0
        assert np.allclose((1 - lam) * a - np.log(w[:-1] / w[-1]), b, atol=1e-15)


class TestRegularity:
    def test_market_fails_strict_definiteness(self, rng):
        # dpi_dtheta cancels the diag(pi) - pi pi^T term up to rounding, which
        # the cut relative to max pi_i does not take for definiteness
        for n in (2, 3, 50):
            report = G.check_regularity(G.ZeroGenerator(), dirichlet_points(rng, n, 10))
            assert [k for k, _ in report.failures] == list(range(10)), n
            assert "negative definite" in report.failures[0][1]

    def test_constant_weighted_passes(self, rng):
        report = G.check_regularity(
            G.constant_weighted([0.3, 0.45, 0.25]), dirichlet_points(rng, 3, 20)
        )
        assert report.passed, report.summary()

    def test_diversity_weighted_passes_100_points(self, rng):
        report = G.check_regularity(
            G.diversity_weighted(0.5), dirichlet_points(rng, 3, 100)
        )
        assert report.passed, report.summary()

    def test_regular_builtins_pass_near_the_boundary(self):
        # points with one entry of 1e-8, and Dirichlet(0.2) points clipped at
        # 1e-12, at low and high dimension
        for n in (3, 10, 50):
            rng = np.random.default_rng(n)
            tiny = rng.dirichlet(np.ones(n), size=10)
            tiny[:, 0] = 1e-8
            tiny[:, 1:] *= (1 - 1e-8) / tiny[:, 1:].sum(axis=1, keepdims=True)
            sparse = np.clip(rng.dirichlet(np.full(n, 0.2), size=10), 1e-12, None)
            sparse /= sparse.sum(axis=1, keepdims=True)
            for name, gen in builtin_zoo(n).items():
                for P in (tiny, sparse):
                    report = G.check_regularity(gen, P)
                    assert report.passed, (n, name, report.summary())

    def test_needs_a_point(self):
        with pytest.raises(ValueError, match="at least one point"):
            G.check_regularity(G.diversity_weighted(0.5), [])

    def test_flags_metric_below_the_cut(self):
        # dw(0.9) with an entry of 1e-12 puts about 1e-11 on that asset: the
        # smallest metric eigenvalue, about 1e-12, is under 1e-10 max pi_i
        P = np.array([[1e-12, 0.4, 0.6 - 1e-12], [0.3, 1e-12, 0.7 - 1e-12]])
        report = G.check_regularity(G.diversity_weighted(0.9), P)
        assert [k for k, _ in report.failures] == [0, 1]
        for rec in report.records:
            assert 0 < rec["metric_min_eig"] <= rec["metric_cut"]
            assert not rec["hessian_neg_def"] and rec["portfolio_interior"]


class TestProperties:
    def test_fgp_inequality(self, rng):
        # sum_i pi_i(p) q_i / p_i >= exp(phi(q) - phi(p)), sampled per family
        for n in (3, 5):
            P = dirichlet_points(rng, n, 400)
            Q = dirichlet_points(rng, n, 400)
            for name, gen in builtin_zoo(n).items():
                lhs = np.einsum("ij,ij->i", gen.portfolio(P), Q / P)
                rhs = np.exp(gen.log_gen(Q) - gen.log_gen(P))
                assert np.all(lhs >= rhs - 1e-12), name

    def test_potential_gradient_is_portfolio(self, rng):
        for name, gen in builtin_zoo(3).items():
            th = rng.normal(size=2) * 0.6
            grad = fd_gradient(lambda x: f_value(gen, x), th)
            pi = gen.portfolio(from_primal(th).p)
            assert np.max(np.abs(grad - pi[:-1])) < 1e-6, name

    def test_batch_apis_match_scalar(self, rng):
        # one method per family: calls on row arrays match per-row calls
        for n in (4, 3, 10):
            P = dirichlet_points(rng, n, 32)
            Theta = rng.normal(size=(8, n - 1)) * 0.5
            gens = builtin_zoo(n)
            gens["market"] = G.ZeroGenerator()
            gens["uniform"] = G.UniformCrossEntropy()
            gens["one-part mix"] = G.convex_combination([gens["diversity"]], [1.0])
            # phi alone: rows of the finite-difference fallbacks
            gens["custom"] = G.CustomGenerator(lambda p: 2.0 * np.log(np.sum(np.sqrt(p))))
            for name, gen in gens.items():
                assert isinstance(gen.log_gen(P[0]), float), name
                # log_gen and euclid_grad round the same for every row count
                phi_rows = gen.log_gen(P)
                assert np.array_equal(phi_rows, [gen.log_gen(p) for p in P]), name
                grad_rows = gen.euclid_grad(P)
                assert np.array_equal(grad_rows, [gen.euclid_grad(p) for p in P]), name
                pi_rows = gen.portfolio(P)
                assert np.allclose(pi_rows, [gen.portfolio(p) for p in P], atol=1e-13), name
                dpi_rows = gen.dpi_dtheta(Theta)
                assert np.allclose(dpi_rows, [gen.dpi_dtheta(t) for t in Theta], atol=1e-8), name
                # a (2, 8, ...) stack of inputs gives the (2, 8, ...) stack of results
                P_stack = P[:16].reshape(2, 8, n)
                assert np.array_equal(gen.log_gen(P_stack), phi_rows[:16].reshape(2, 8)), name
                assert np.array_equal(gen.euclid_grad(P_stack),
                                      grad_rows[:16].reshape(2, 8, n)), name
                assert np.allclose(gen.portfolio(P_stack), pi_rows[:16].reshape(2, 8, n),
                                   atol=1e-13), name
                dpi_stack = gen.dpi_dtheta(np.stack([Theta, Theta]))
                assert dpi_stack.shape == (2, 8, n, n - 1), name
                assert np.allclose(dpi_stack, [dpi_rows, dpi_rows], atol=1e-8), name
                # the closed-form dual inverses are elementwise: rows map exactly
                rows = gen.dual_map_inverse(Theta)
                if name in ("mix", "market", "custom"):
                    assert rows is None
                else:
                    ref = [gen.dual_map_inverse(t) for t in Theta]
                    assert np.array_equal(rows, ref), name


class TestConfig:
    def test_round_trip_all_kinds(self):
        gens = [
            G.ZeroGenerator(),
            G.UniformCrossEntropy(),
            G.constant_weighted([0.25, 0.75]),
            G.diversity_weighted(0.5),
            G.generalized_diversity_weighted([1.0, 2.0], 0.3),
            G.convex_combination(
                [G.constant_weighted([0.5, 0.5]), G.diversity_weighted(0.8)], [0.4, 0.6]
            ),
        ]
        for gen in gens:
            doc = G.generator_to_json(gen)
            back = G.generator_from_json(doc)
            assert type(back) is type(gen)
            assert json.loads(G.generator_to_json(back)) == json.loads(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            G.generator_from_config({"kind": "mystery"})
